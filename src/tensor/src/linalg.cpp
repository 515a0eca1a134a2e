#include "xbarsec/tensor/linalg.hpp"

#include <cmath>

#include "xbarsec/common/error.hpp"
#include "xbarsec/tensor/gemm.hpp"

namespace xbarsec::tensor {

namespace {
constexpr double kSingularTol = 1e-12;
}

QrFactorization qr_decompose(Matrix A) {
    const std::size_t m = A.rows(), n = A.cols();
    XS_EXPECTS_MSG(m >= n, "qr_decompose requires rows >= cols");
    Vector tau(n, 0.0);

    for (std::size_t k = 0; k < n; ++k) {
        // Build the Householder reflector that annihilates A[k+1:, k].
        double norm_x = 0.0;
        for (std::size_t i = k; i < m; ++i) norm_x += A(i, k) * A(i, k);
        norm_x = std::sqrt(norm_x);
        if (norm_x == 0.0) {
            tau[k] = 0.0;
            continue;
        }
        const double alpha = A(k, k) >= 0.0 ? -norm_x : norm_x;
        const double v0 = A(k, k) - alpha;
        // v = (v0, A[k+1:, k]); normalize so v[0] == 1 (stored implicitly).
        for (std::size_t i = k + 1; i < m; ++i) A(i, k) /= v0;
        tau[k] = -v0 / alpha;  // == 2 / (vᵀv) with v[0] = 1 scaling
        A(k, k) = alpha;

        // Apply (I - tau v vᵀ) to the remaining columns.
        for (std::size_t j = k + 1; j < n; ++j) {
            double s = A(k, j);
            for (std::size_t i = k + 1; i < m; ++i) s += A(i, k) * A(i, j);
            s *= tau[k];
            A(k, j) -= s;
            for (std::size_t i = k + 1; i < m; ++i) A(i, j) -= s * A(i, k);
        }
    }
    return {std::move(A), std::move(tau)};
}

void apply_q_transpose(const QrFactorization& f, Matrix& B) {
    const std::size_t m = f.rows(), n = f.cols();
    XS_EXPECTS(B.rows() == m);
    const std::size_t k = B.cols();
    // Qᵀ = H_{n-1} … H_1 H_0 applied in factorization order.
    for (std::size_t c = 0; c < n; ++c) {
        if (f.tau[c] == 0.0) continue;
        for (std::size_t j = 0; j < k; ++j) {
            double s = B(c, j);
            for (std::size_t i = c + 1; i < m; ++i) s += f.qr(i, c) * B(i, j);
            s *= f.tau[c];
            B(c, j) -= s;
            for (std::size_t i = c + 1; i < m; ++i) B(i, j) -= s * f.qr(i, c);
        }
    }
}

Matrix solve_upper(const QrFactorization& f, const Matrix& B) {
    const std::size_t n = f.cols();
    XS_EXPECTS(B.rows() >= n);
    const std::size_t k = B.cols();
    Matrix X(n, k, 0.0);
    for (std::size_t jj = 0; jj < k; ++jj) {
        for (std::size_t irev = 0; irev < n; ++irev) {
            const std::size_t i = n - 1 - irev;
            double s = B(i, jj);
            for (std::size_t c = i + 1; c < n; ++c) s -= f.qr(i, c) * X(c, jj);
            const double diag = f.qr(i, i);
            if (std::abs(diag) < kSingularTol) {
                throw Error("lstsq: matrix is rank-deficient to working precision");
            }
            X(i, jj) = s / diag;
        }
    }
    return X;
}

Matrix lstsq(const Matrix& A, const Matrix& B) {
    XS_EXPECTS(A.rows() == B.rows());
    XS_EXPECTS_MSG(A.rows() >= A.cols(), "lstsq requires an overdetermined (or square) system");
    const QrFactorization f = qr_decompose(A);
    Matrix QtB = B;
    apply_q_transpose(f, QtB);
    return solve_upper(f, QtB);
}

Matrix pinv(const Matrix& A) {
    XS_EXPECTS(!A.empty());
    if (A.rows() >= A.cols()) {
        return lstsq(A, Matrix::identity(A.rows()));
    }
    // Wide matrix: A† = (Aᵀ)†ᵀ.
    return pinv(A.transposed()).transposed();
}

Matrix cholesky(const Matrix& A) {
    XS_EXPECTS(A.rows() == A.cols());
    const std::size_t n = A.rows();
    Matrix L(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double s = A(i, j);
            for (std::size_t c = 0; c < j; ++c) s -= L(i, c) * L(j, c);
            if (i == j) {
                if (s <= 0.0) throw Error("cholesky: matrix is not positive definite");
                L(i, i) = std::sqrt(s);
            } else {
                L(i, j) = s / L(j, j);
            }
        }
    }
    return L;
}

Matrix solve_spd(const Matrix& A, const Matrix& B) {
    XS_EXPECTS(A.rows() == B.rows());
    const Matrix L = cholesky(A);
    const std::size_t n = A.rows(), k = B.cols();
    // Forward substitution L·Y = B.
    Matrix Y(n, k, 0.0);
    for (std::size_t jj = 0; jj < k; ++jj) {
        for (std::size_t i = 0; i < n; ++i) {
            double s = B(i, jj);
            for (std::size_t c = 0; c < i; ++c) s -= L(i, c) * Y(c, jj);
            Y(i, jj) = s / L(i, i);
        }
    }
    // Back substitution Lᵀ·X = Y.
    Matrix X(n, k, 0.0);
    for (std::size_t jj = 0; jj < k; ++jj) {
        for (std::size_t irev = 0; irev < n; ++irev) {
            const std::size_t i = n - 1 - irev;
            double s = Y(i, jj);
            for (std::size_t c = i + 1; c < n; ++c) s -= L(c, i) * X(c, jj);
            X(i, jj) = s / L(i, i);
        }
    }
    return X;
}

Matrix ridge_solve(const Matrix& A, const Matrix& B, double lambda, ThreadPool* pool,
                   Workspace* ws) {
    XS_EXPECTS(lambda >= 0.0);
    XS_EXPECTS(A.rows() == B.rows());
    // Normal equations (AᵀA + λI) X = AᵀB. Fine for the modest condition
    // numbers of this library's workloads; lstsq() is the stable path for
    // λ = 0 when m ≥ n. Both products are blocked over the kernel layer
    // and shard across `pool` (AᵀA is the O(Q·N²) bulk of the solve).
    // The N×N / N×M temporaries draw from `ws` when given, so repeated
    // fits (query-budget sweeps) stop reallocating them; the Scope
    // rewind means slots the caller already holds stay untouched.
    Workspace local_ws;
    Workspace& scratch = ws != nullptr ? *ws : local_ws;
    const Workspace::Scope scope(scratch);
    Matrix& AtA = scratch.matrix(A.cols(), A.cols());
    gemm(1.0, A, Op::Transpose, A, Op::None, 0.0, AtA, pool);
    for (std::size_t i = 0; i < AtA.rows(); ++i) AtA(i, i) += lambda;
    Matrix& AtB = scratch.matrix(A.cols(), B.cols());
    gemm(1.0, A, Op::Transpose, B, Op::None, 0.0, AtB, pool);
    return solve_spd(AtA, AtB);
}

}  // namespace xbarsec::tensor
