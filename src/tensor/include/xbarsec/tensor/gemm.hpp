// General matrix-matrix multiply with transpose options.
//
// Minibatch training is expressed as GEMMs (X·Wᵀ forward, Gᵀ·X for weight
// gradients), and the crossbar simulator's batched inference path reduces
// to one GEMM against the differential conductance matrix — so this is the
// throughput core of the whole library. The implementation is a packed-panel
// kernel (no external BLAS dependency):
//
//   * the k dimension is blocked so a panel of each operand stays
//     cache-resident while it is consumed;
//   * B's k-slice is packed once per block into register-tile-wide strips,
//     A's rows are packed (alpha-scaled, transposes folded in) per
//     micro-panel — the inner loop only ever reads contiguous memory;
//   * the hot loop updates a register tile of C, compiled at several ISA
//     levels and picked at runtime (see the kernel-variant dispatch
//     below). No -march flags are required;
//   * outputs 9 to 16 wide (the paper's 10-class heads) take a
//     skinny-output path on AVX-512 instead: lanes run over the outputs,
//     A is broadcast in place and only a transposed B is packed, with the
//     packed tiles' exact accumulation chain.
//
// Passing a ThreadPool shards the output over row panels. Each C element
// accumulates in the same order regardless of the partition, so the
// parallel product is bit-identical to the serial one (tested).
#pragma once

#include <span>

#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/tensor/matrix.hpp"

namespace xbarsec::tensor {

/// Whether an operand participates as itself or its transpose.
enum class Op { None, Transpose };

// ---- kernel-variant dispatch ------------------------------------------------
//
// The register-tile micro-kernel is compiled at three ISA levels and picked
// at runtime: portable 4×4 (plain C++), AVX2+FMA 6×8 / 6×4, and AVX-512F
// 12×8 / 8×8 plus the skinny-output path for 9 ≤ n ≤ 16. `Auto` (the
// default) selects the widest arm the CPU supports per product shape. The
// other values force one arm — for conformance testing (ctest -L kernel
// runs the GEMM property suites once per variant) and for benchmarking the
// arms against each other. Forcing is also
// available without code via the XBARSEC_FORCE_KERNEL environment variable
// (auto | portable | avx2 | avx512), read once at first use; a
// set_kernel_variant() call overrides the environment.

enum class KernelVariant { Auto, Portable, Avx2, Avx512 };

/// Forces every subsequent gemm onto one kernel arm (process-wide).
/// Throws ConfigError when the CPU lacks the requested ISA.
void set_kernel_variant(KernelVariant v);

/// The forced variant currently in effect: a set_kernel_variant() override,
/// else XBARSEC_FORCE_KERNEL, else Auto. Throws ConfigError when the
/// environment variable is unparseable or names an unsupported ISA.
KernelVariant forced_kernel_variant();

/// Whether this CPU can run `v` (Auto and Portable are always available).
bool kernel_variant_available(KernelVariant v);

/// Lower-case name, matching the XBARSEC_FORCE_KERNEL spelling.
const char* to_string(KernelVariant v);

/// Inverse of to_string(); throws ConfigError on unknown names.
KernelVariant parse_kernel_variant(const std::string& name);

/// C = alpha * op(A) · op(B) + beta * C.
///
/// Shapes (after applying ops): op(A) is (m×k), op(B) is (k×n), C must be
/// (m×n). Aliasing C with A or B is not allowed. When `pool` is non-null
/// and the product is large enough to amortise task dispatch, row panels
/// of C are computed on the pool's workers (bit-identical to serial).
void gemm(double alpha, const Matrix& A, Op opA, const Matrix& B, Op opB, double beta, Matrix& C,
          ThreadPool* pool = nullptr);

/// gemm without the wide-and-flat transpose-swap heuristic. Guarantees
/// that each row of C is produced by an accumulation chain that depends
/// only on (k, n) and that row of op(A) — never on m or the pool — so any
/// row partition of the batch yields bit-identical rows. The crossbar's
/// batched measurement paths use this for split-invariant reproducibility;
/// prefer plain gemm() everywhere throughput is the only requirement.
void gemm_rowstable(double alpha, const Matrix& A, Op opA, const Matrix& B, Op opB, double beta,
                    Matrix& C, ThreadPool* pool = nullptr);

/// One row of gemm_rowstable over spans: c = alpha · a · op(B) + beta · c,
/// with `a` of length k and `c` of length n (k×n = op(B)'s shape). The
/// result is bit-identical to the matching row of any gemm_rowstable call
/// with the same B, and the call never touches the heap (any packing
/// scratch comes off the thread arena) — the allocation-free path a
/// per-query caller such as the crossbar's single-row read uses.
void gemm_row(double alpha, std::span<const double> a, const Matrix& B, Op opB, double beta,
              std::span<double> c);

/// Convenience: returns A·B.
Matrix matmul(const Matrix& A, const Matrix& B);

/// Convenience: returns op(A)·op(B).
Matrix matmul(const Matrix& A, Op opA, const Matrix& B, Op opB);

}  // namespace xbarsec::tensor
