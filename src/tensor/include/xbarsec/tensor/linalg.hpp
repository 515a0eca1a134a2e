// Dense linear-algebra kernels: Householder QR, least squares,
// pseudoinverse, Cholesky / ridge solves.
//
// Section IV of the paper observes that once the attacker has Q ≥ N
// independent (input, output) query pairs, the oracle weight matrix is
// exactly recoverable as W = U†·Ŷ and the power side channel becomes
// redundant. bench_pinv_boundary measures that boundary through lstsq()
// (the least-squares surrogate fit); pinv() states W = U†·Ŷ directly and
// is pinned by the Pinv.SectionIvWeightRecovery test.
#pragma once

#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/tensor/matrix.hpp"
#include "xbarsec/tensor/vector.hpp"
#include "xbarsec/tensor/workspace.hpp"

namespace xbarsec::tensor {

/// Compact Householder QR of an m×n matrix with m ≥ n.
/// `qr` stores R in its upper triangle and the Householder vectors below
/// the diagonal (LAPACK geqrf layout); `tau` holds the reflector scales.
struct QrFactorization {
    Matrix qr;
    Vector tau;

    std::size_t rows() const { return qr.rows(); }
    std::size_t cols() const { return qr.cols(); }
};

/// Computes the Householder QR factorization. Requires rows ≥ cols.
QrFactorization qr_decompose(Matrix A);

/// Applies Qᵀ (from the factorization) to B in place. B must have
/// f.rows() rows.
void apply_q_transpose(const QrFactorization& f, Matrix& B);

/// Back-substitution with the upper-triangular R factor:
/// solves R·X = B[0:n, :] and returns the n×k solution.
/// Throws Error if R is numerically singular.
Matrix solve_upper(const QrFactorization& f, const Matrix& B);

/// Least squares: returns argmin_X ‖A·X − B‖_F for A (m×n, m ≥ n, full
/// column rank) and B (m×k). Throws Error when A is rank-deficient to
/// working precision.
Matrix lstsq(const Matrix& A, const Matrix& B);

/// Moore-Penrose pseudoinverse via QR (full-rank case). For m ≥ n this is
/// (AᵀA)⁻¹Aᵀ computed stably from the QR factors; for m < n the transpose
/// identity A† = (Aᵀ)†ᵀ is used.
Matrix pinv(const Matrix& A);

/// Cholesky factorization of a symmetric positive-definite matrix;
/// returns lower-triangular L with A = L·Lᵀ. Throws Error if A is not
/// positive definite.
Matrix cholesky(const Matrix& A);

/// Solves A·X = B for SPD A using its Cholesky factorization.
Matrix solve_spd(const Matrix& A, const Matrix& B);

/// Ridge regression solve: returns argmin_X ‖A·X − B‖² + λ‖X‖², i.e.
/// X = (AᵀA + λI)⁻¹ AᵀB. λ must be ≥ 0; with λ = 0 A must have full
/// column rank. The normal-equations products AᵀA and AᵀB run as blocked
/// kernel-layer GEMMs, sharded over `pool` when given (the dominant cost
/// for Q×N query matrices; the N×N Cholesky solve stays serial). When a
/// Workspace is given, the N×N / N×M normal-equations temporaries are
/// drawn from it under a Workspace::Scope — reused across calls, without
/// touching slots the caller still holds.
Matrix ridge_solve(const Matrix& A, const Matrix& B, double lambda, ThreadPool* pool = nullptr,
                   Workspace* ws = nullptr);

}  // namespace xbarsec::tensor
