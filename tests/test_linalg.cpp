// QR / least-squares / pseudoinverse / Cholesky tests, including the
// Section-IV observation that Q ≥ N queries recover W exactly.
#include <gtest/gtest.h>

#include <cmath>

#include "xbarsec/common/error.hpp"
#include "xbarsec/tensor/gemm.hpp"
#include "xbarsec/tensor/linalg.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::tensor {
namespace {

void expect_near(const Matrix& a, const Matrix& b, double tol) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j) EXPECT_NEAR(a(i, j), b(i, j), tol);
}

TEST(Qr, RFactorIsUpperTriangularWithReconstruction) {
    Rng rng(1);
    const Matrix A = Matrix::random_normal(rng, 8, 5);
    const QrFactorization f = qr_decompose(A);
    // Verify via least squares instead of forming Q: solve A·x = A·e_k and
    // expect e_k back for every k (A has full column rank a.s.).
    const Matrix X = lstsq(A, matmul(A, Matrix::identity(5)));
    expect_near(X, Matrix::identity(5), 1e-9);
    // R's strict lower part must be Householder storage, not used by the
    // solve; nothing to assert directly beyond the solve correctness.
    EXPECT_EQ(f.rows(), 8u);
    EXPECT_EQ(f.cols(), 5u);
}

TEST(Qr, RequiresTallMatrix) {
    EXPECT_THROW(qr_decompose(Matrix(2, 3)), ContractViolation);
}

TEST(Lstsq, ExactSolveSquareSystem) {
    const Matrix A{{2, 0}, {0, 4}};
    const Matrix b{{6}, {8}};
    const Matrix x = lstsq(A, b);
    ASSERT_EQ(x.rows(), 2u);
    ASSERT_EQ(x.cols(), 1u);
    EXPECT_NEAR(x(0, 0), 3.0, 1e-12);
    EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
}

TEST(Lstsq, OverdeterminedProjects) {
    // Fit y = c over observations {1, 2, 3}: least squares gives the mean.
    const Matrix A{{1}, {1}, {1}};
    const Matrix b{{1}, {2}, {3}};
    const Matrix x = lstsq(A, b);
    ASSERT_EQ(x.rows(), 1u);
    EXPECT_NEAR(x(0, 0), 2.0, 1e-12);
}

TEST(Lstsq, RankDeficientThrows) {
    const Matrix A{{1, 1}, {1, 1}, {1, 1}};  // rank 1
    const Matrix B(3, 1, 1.0);
    EXPECT_THROW(lstsq(A, B), Error);
}

TEST(Pinv, MoorePenroseIdentitiesTallAndWide) {
    Rng rng(2);
    for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{9, 4},
                               std::pair<std::size_t, std::size_t>{4, 9}}) {
        const Matrix A = Matrix::random_normal(rng, m, n);
        const Matrix Ap = pinv(A);
        ASSERT_EQ(Ap.rows(), n);
        ASSERT_EQ(Ap.cols(), m);
        // A·A†·A = A and A†·A·A† = A†.
        expect_near(matmul(matmul(A, Ap), A), A, 1e-8);
        expect_near(matmul(matmul(Ap, A), Ap), Ap, 1e-8);
    }
}

TEST(Pinv, SectionIvWeightRecovery) {
    // The paper's Case-2 boundary: with Q >= N independent queries U and
    // linear outputs Y = U·Wᵀ, the attacker recovers W = (U†·Y)ᵀ exactly.
    Rng rng(3);
    const std::size_t N = 12, M = 4, Q = 20;
    const Matrix W = Matrix::random_normal(rng, M, N);
    const Matrix U = Matrix::random_uniform(rng, Q, N);
    const Matrix Y = matmul(U, W.transposed());
    const Matrix W_hat = matmul(pinv(U), Y).transposed();
    expect_near(W_hat, W, 1e-8);
}

TEST(Cholesky, FactorizesSpdAndRejectsIndefinite) {
    const Matrix A{{4, 2}, {2, 3}};
    const Matrix L = cholesky(A);
    expect_near(matmul(L, L.transposed()), A, 1e-12);
    const Matrix Indef{{1, 2}, {2, 1}};
    EXPECT_THROW(cholesky(Indef), Error);
}

TEST(SolveSpd, RoundTrips) {
    Rng rng(4);
    const Matrix G = Matrix::random_normal(rng, 6, 6);
    Matrix A = matmul(G, G.transposed());
    for (std::size_t i = 0; i < 6; ++i) A(i, i) += 1.0;  // well-conditioned SPD
    const Matrix X_true = Matrix::random_normal(rng, 6, 2);
    const Matrix B = matmul(A, X_true);
    expect_near(solve_spd(A, B), X_true, 1e-8);
}

TEST(Ridge, ZeroLambdaMatchesLstsqOnFullRank) {
    Rng rng(5);
    const Matrix A = Matrix::random_normal(rng, 10, 4);
    const Matrix B = Matrix::random_normal(rng, 10, 2);
    expect_near(ridge_solve(A, B, 0.0), lstsq(A, B), 1e-7);
}

TEST(Ridge, HandlesUnderdeterminedSystems) {
    Rng rng(6);
    const Matrix A = Matrix::random_normal(rng, 3, 8);  // Q < N
    const Matrix B = Matrix::random_normal(rng, 3, 2);
    const Matrix X = ridge_solve(A, B, 1e-3);
    // Solution exists and roughly fits the observations.
    const Matrix fit = matmul(A, X);
    for (std::size_t i = 0; i < fit.rows(); ++i)
        for (std::size_t j = 0; j < fit.cols(); ++j) EXPECT_NEAR(fit(i, j), B(i, j), 0.2);
}

TEST(Ridge, LargerLambdaShrinksSolution) {
    Rng rng(7);
    const Matrix A = Matrix::random_normal(rng, 20, 5);
    const Matrix B = Matrix::random_normal(rng, 20, 1);
    const double small = frobenius_norm(ridge_solve(A, B, 1e-6));
    const double large = frobenius_norm(ridge_solve(A, B, 1e3));
    EXPECT_LT(large, small);
}

}  // namespace
}  // namespace xbarsec::tensor
