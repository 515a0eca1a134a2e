// Elementwise and BLAS-1/2-level operations on Vector / Matrix.
//
// The crossbar algebra of the paper lives here in named form:
//   * matvec(W, u)          — Eq. 4's s = W·u
//   * column_abs_sums(W)    — Eq. 5-6's column 1-norms ‖W[:,j]‖₁,
//                             i.e. exactly what the power side channel leaks.
#pragma once

#include <cstddef>
#include <vector>

#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/tensor/matrix.hpp"
#include "xbarsec/tensor/vector.hpp"

namespace xbarsec::tensor {

// ---- BLAS-1 ----------------------------------------------------------------

/// Inner product <a, b>.
double dot(const Vector& a, const Vector& b);

/// Sum of elements.
double sum(const Vector& v);

/// ℓ2 norm sqrt(Σvᵢ²).
double norm2(const Vector& v);

/// ℓ∞ norm max|vᵢ|.
double norm_inf(const Vector& v);

/// Index of the largest element (first on ties); requires non-empty.
std::size_t argmax(const Vector& v);

/// Largest element value; requires non-empty.
double max(const Vector& v);

/// Elementwise product a ⊙ b.
Vector hadamard(const Vector& a, const Vector& b);

/// Elementwise absolute value.
Vector abs(const Vector& v);

/// Elementwise sign (+1 / 0 / -1).
Vector sign(const Vector& v);

/// True when every element is finite.
bool all_finite(const Vector& v);

// ---- BLAS-2 ----------------------------------------------------------------

/// Returns W·u. W is (M×N), u is (N); result is (M). This is Eq. 4's
/// pre-activation vector s.
Vector matvec(const Matrix& W, const Vector& u);

/// Pool-sharded matvec: W's rows are processed in cache-resident tiles on
/// the pool's workers. Bit-identical to the serial overload for any tile
/// partition (rows are independent).
Vector matvec(const Matrix& W, const Vector& u, ThreadPool* pool);

/// Per-row dots: out[r] = dot(V.row(r), g), every row computed with
/// exactly the accumulation chain of the scalar dot() — unlike matvec(),
/// whose 4-row blocking makes a row's rounding depend on its position in
/// the batch. Row results are therefore bit-identical across batch
/// splits, pool sizes, and against scalar dot() calls. This is the
/// batched power-channel kernel: total_current_batch(V) is
/// rowwise_dot(V, G_col).
Vector rowwise_dot(const Matrix& V, const Vector& g, ThreadPool* pool = nullptr);

/// Returns Wᵀ·v without forming the transpose. W is (M×N), v is (M);
/// result is (N).
Vector matvec_transposed(const Matrix& W, const Vector& v);

/// Rank-1 update A += alpha * u·vᵀ. u is (rows), v is (cols).
void ger(double alpha, const Vector& u, const Vector& v, Matrix& A);

/// Outer product u·vᵀ as a new matrix.
Matrix outer(const Vector& u, const Vector& v);

// ---- row gathers -------------------------------------------------------------

/// Copies rows src[idx[lo]], …, src[idx[hi-1]] into `out` (resized to
/// (hi−lo)×src.cols(), prior contents discarded; must not alias src).
/// This is the minibatch gather every trainer runs per iteration — callers
/// pass a Workspace slot so the steady-state loop performs no allocation.
void gather_rows(const Matrix& src, const std::vector<std::size_t>& idx, std::size_t lo,
                 std::size_t hi, Matrix& out);

// ---- matrix reductions -------------------------------------------------------

/// Column-wise 1-norms: out[j] = Σᵢ |W(i,j)|. Under the paper's one-sided
/// conductance mapping this is (up to the mapping scale) the quantity the
/// total crossbar current reveals for basis-vector inputs (Eq. 5-6).
Vector column_abs_sums(const Matrix& W);

/// Column-wise sums (signed).
Vector column_sums(const Matrix& W);

/// column_sums into a caller-provided vector (resized, zero-filled
/// first). The trainers' bias-gradient path uses this with a hoisted
/// buffer so the minibatch loop stays allocation-free.
void column_sums_into(const Matrix& W, Vector& out);

/// Row-wise argmax as integer labels: out[r] = argmax of row r (first on
/// ties). The batched classification reduction shared by the software
/// and crossbar inference paths.
std::vector<int> argmax_rows(const Matrix& M);

/// Mean squared row norm E[‖row‖²] over (at most max_rows of) W's rows.
/// Used to scale learning rates to the data: the GD stability bound for
/// a dense layer scales with 1/E[‖u‖²].
double mean_squared_row_norm(const Matrix& W, std::size_t max_rows = 0);

/// Frobenius norm.
double frobenius_norm(const Matrix& W);

/// Largest absolute element.
double max_abs(const Matrix& W);

/// True when every element is finite.
bool all_finite(const Matrix& W);

}  // namespace xbarsec::tensor
