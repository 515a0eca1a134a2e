#include "xbarsec/tensor/gemm.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "xbarsec/common/arena.hpp"
#include "xbarsec/common/error.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace xbarsec::tensor {

namespace {

// ---- kernel geometry --------------------------------------------------------

/// Depth of the packed panels. One micro-panel of A (≤ 12 rows × kBlockK)
/// and one B strip (kBlockK × ≤ 8) sit comfortably in L1 while a tile runs.
constexpr std::size_t kBlockK = 256;

/// Rows per parallel task. Each C row accumulates its k-terms in p-ascending
/// order in its own registers, independent of which rows share a tile, so
/// any row partition is bit-identical to the serial product (tested by
/// Gemm.ParallelMatchesSerialBitForBit).
constexpr std::size_t kRowsPerPanel = 64;

/// Smallest 2·m·n·k worth sharding (task dispatch costs microseconds).
constexpr double kMinParallelFlops = 4.0e6;

/// A stored row-major operand: element (i, j) is data[i·ld + j]. Matrix
/// operands and gemm_row's spans both reduce to this.
struct Operand {
    const double* data;
    std::size_t ld;
};

/// The output C, row-major with row stride ld.
struct Output {
    double* data;
    std::size_t ld;
};

/// Whether an m×n×k product is worth sharding over `pool`'s workers.
bool sharded(ThreadPool* pool, std::size_t m, std::size_t n, std::size_t k) {
    return pool != nullptr && m > kRowsPerPanel &&
           2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k) >=
               kMinParallelFlops;
}

// ---- micro-kernels ----------------------------------------------------------
//
// C[mr×nr] += Ap·Bp over a kc-deep packed panel pair. Ap is p-major with
// MR-interleaved (alpha-scaled, zero-padded) rows; Bp is a kc×NR strip
// (zero-padded columns), so the hot loop is branch-free and every load is
// contiguous. The MR·NR accumulators live in registers; the guarded
// writeback touches only the live mr×nr corner of the tile.
//
// The body is stamped out at several geometries: a portable 4×4 whose 16
// accumulators fit the 16 SSE2 xmm registers every x86-64 CPU has, and
// AVX2+FMA 6×4 / 6×8 variants selected at runtime when the CPU supports
// them — vector width without -march flags, so one binary runs anywhere.

#define XS_GEMM_TILE_BODY(MR_, NR_)                                                 \
    double acc[(MR_) * (NR_)] = {};                                                 \
    for (std::size_t p = 0; p < kc; ++p) {                                          \
        const double* __restrict a = ap + p * (MR_);                                \
        const double* __restrict b = bp + p * bs;                                   \
        for (std::size_t r = 0; r < (MR_); ++r) {                                   \
            const double ar = a[r];                                                 \
            for (std::size_t j = 0; j < (NR_); ++j) acc[r * (NR_) + j] += ar * b[j];\
        }                                                                           \
    }                                                                               \
    for (std::size_t r = 0; r < mr; ++r) {                                          \
        double* __restrict crow = c + r * ldc;                                      \
        for (std::size_t j = 0; j < nr; ++j) crow[j] += acc[r * (NR_) + j];         \
    }

void tile_portable_4x4(const double* __restrict ap, const double* __restrict bp, std::size_t bs,
                       std::size_t kc, double* __restrict c, std::size_t ldc, std::size_t mr,
                       std::size_t nr) {
    XS_GEMM_TILE_BODY(4, 4)
}

using TileFn = void (*)(const double* __restrict, const double* __restrict, std::size_t,
                        std::size_t, double* __restrict, std::size_t, std::size_t, std::size_t);

#if defined(__x86_64__) && defined(__GNUC__)
#define XS_GEMM_HAVE_AVX2_VARIANT 1

// The AVX2 tiles are written with intrinsics rather than the generic body:
// at 48 accumulators GCC's scalar replacement gives up and spills the
// accumulator array to the stack every iteration, which is slower than the
// portable kernel. Explicit ymm accumulators pin the tile in registers.

__attribute__((target("avx2,fma"))) void tile_avx2_6x4(const double* __restrict ap,
                                                       const double* __restrict bp, std::size_t bs,
                                                       std::size_t kc, double* __restrict c,
                                                       std::size_t ldc, std::size_t mr,
                                                       std::size_t nr) {
    __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd(), acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd(), acc4 = _mm256_setzero_pd(), acc5 = _mm256_setzero_pd();
    for (std::size_t p = 0; p < kc; ++p) {
        const double* a = ap + p * 6;
        const __m256d b = _mm256_loadu_pd(bp + p * bs);
        acc0 = _mm256_fmadd_pd(_mm256_broadcast_sd(a + 0), b, acc0);
        acc1 = _mm256_fmadd_pd(_mm256_broadcast_sd(a + 1), b, acc1);
        acc2 = _mm256_fmadd_pd(_mm256_broadcast_sd(a + 2), b, acc2);
        acc3 = _mm256_fmadd_pd(_mm256_broadcast_sd(a + 3), b, acc3);
        acc4 = _mm256_fmadd_pd(_mm256_broadcast_sd(a + 4), b, acc4);
        acc5 = _mm256_fmadd_pd(_mm256_broadcast_sd(a + 5), b, acc5);
    }
    double acc[6 * 4];
    _mm256_storeu_pd(acc + 0, acc0);
    _mm256_storeu_pd(acc + 4, acc1);
    _mm256_storeu_pd(acc + 8, acc2);
    _mm256_storeu_pd(acc + 12, acc3);
    _mm256_storeu_pd(acc + 16, acc4);
    _mm256_storeu_pd(acc + 20, acc5);
    for (std::size_t r = 0; r < mr; ++r) {
        double* __restrict crow = c + r * ldc;
        for (std::size_t j = 0; j < nr; ++j) crow[j] += acc[r * 4 + j];
    }
}

__attribute__((target("avx2,fma"))) void tile_avx2_6x8(const double* __restrict ap,
                                                       const double* __restrict bp, std::size_t bs,
                                                       std::size_t kc, double* __restrict c,
                                                       std::size_t ldc, std::size_t mr,
                                                       std::size_t nr) {
    __m256d acc[12];
    for (auto& v : acc) v = _mm256_setzero_pd();
    for (std::size_t p = 0; p < kc; ++p) {
        const double* a = ap + p * 6;
        const __m256d b0 = _mm256_loadu_pd(bp + p * bs);
        const __m256d b1 = _mm256_loadu_pd(bp + p * bs + 4);
        const __m256d a0 = _mm256_broadcast_sd(a + 0);
        acc[0] = _mm256_fmadd_pd(a0, b0, acc[0]);
        acc[1] = _mm256_fmadd_pd(a0, b1, acc[1]);
        const __m256d a1 = _mm256_broadcast_sd(a + 1);
        acc[2] = _mm256_fmadd_pd(a1, b0, acc[2]);
        acc[3] = _mm256_fmadd_pd(a1, b1, acc[3]);
        const __m256d a2 = _mm256_broadcast_sd(a + 2);
        acc[4] = _mm256_fmadd_pd(a2, b0, acc[4]);
        acc[5] = _mm256_fmadd_pd(a2, b1, acc[5]);
        const __m256d a3 = _mm256_broadcast_sd(a + 3);
        acc[6] = _mm256_fmadd_pd(a3, b0, acc[6]);
        acc[7] = _mm256_fmadd_pd(a3, b1, acc[7]);
        const __m256d a4 = _mm256_broadcast_sd(a + 4);
        acc[8] = _mm256_fmadd_pd(a4, b0, acc[8]);
        acc[9] = _mm256_fmadd_pd(a4, b1, acc[9]);
        const __m256d a5 = _mm256_broadcast_sd(a + 5);
        acc[10] = _mm256_fmadd_pd(a5, b0, acc[10]);
        acc[11] = _mm256_fmadd_pd(a5, b1, acc[11]);
    }
    double out[6 * 8];
    for (std::size_t r = 0; r < 12; ++r) _mm256_storeu_pd(out + r * 4, acc[r]);
    for (std::size_t r = 0; r < mr; ++r) {
        double* __restrict crow = c + r * ldc;
        for (std::size_t j = 0; j < nr; ++j) crow[j] += out[r * 8 + j];
    }
}

// The AVX-512 tiles follow the same pattern one register width up: one
// 8-wide zmm load of the B strip per k-step, one broadcast-FMA per row.
// Per output element the FMA chain over p is identical to the AVX2 6×8
// tile's (each lane is an independent fused chain), so switching between
// the 8-row and 12-row geometry — or between the AVX2 and AVX-512 arms on
// NR=8 strips — never changes a result bit. The 12×8 tile holds 12
// accumulators plus loads in the 32 zmm registers and amortises each B
// strip load over half again as many rows as 8×8.

__attribute__((target("avx512f"))) void tile_avx512_8x8(const double* __restrict ap,
                                                        const double* __restrict bp, std::size_t bs,
                                                        std::size_t kc, double* __restrict c,
                                                        std::size_t ldc, std::size_t mr,
                                                        std::size_t nr) {
    __m512d acc[8];
    for (auto& v : acc) v = _mm512_setzero_pd();
    for (std::size_t p = 0; p < kc; ++p) {
        const double* a = ap + p * 8;
        const __m512d b = _mm512_loadu_pd(bp + p * bs);
        acc[0] = _mm512_fmadd_pd(_mm512_set1_pd(a[0]), b, acc[0]);
        acc[1] = _mm512_fmadd_pd(_mm512_set1_pd(a[1]), b, acc[1]);
        acc[2] = _mm512_fmadd_pd(_mm512_set1_pd(a[2]), b, acc[2]);
        acc[3] = _mm512_fmadd_pd(_mm512_set1_pd(a[3]), b, acc[3]);
        acc[4] = _mm512_fmadd_pd(_mm512_set1_pd(a[4]), b, acc[4]);
        acc[5] = _mm512_fmadd_pd(_mm512_set1_pd(a[5]), b, acc[5]);
        acc[6] = _mm512_fmadd_pd(_mm512_set1_pd(a[6]), b, acc[6]);
        acc[7] = _mm512_fmadd_pd(_mm512_set1_pd(a[7]), b, acc[7]);
    }
    double out[8 * 8];
    for (std::size_t r = 0; r < 8; ++r) _mm512_storeu_pd(out + r * 8, acc[r]);
    for (std::size_t r = 0; r < mr; ++r) {
        double* __restrict crow = c + r * ldc;
        for (std::size_t j = 0; j < nr; ++j) crow[j] += out[r * 8 + j];
    }
}

__attribute__((target("avx512f"))) void tile_avx512_12x8(const double* __restrict ap,
                                                         const double* __restrict bp,
                                                         std::size_t bs, std::size_t kc,
                                                         double* __restrict c, std::size_t ldc,
                                                         std::size_t mr, std::size_t nr) {
    __m512d acc[12];
    for (auto& v : acc) v = _mm512_setzero_pd();
    for (std::size_t p = 0; p < kc; ++p) {
        const double* a = ap + p * 12;
        const __m512d b = _mm512_loadu_pd(bp + p * bs);
        acc[0] = _mm512_fmadd_pd(_mm512_set1_pd(a[0]), b, acc[0]);
        acc[1] = _mm512_fmadd_pd(_mm512_set1_pd(a[1]), b, acc[1]);
        acc[2] = _mm512_fmadd_pd(_mm512_set1_pd(a[2]), b, acc[2]);
        acc[3] = _mm512_fmadd_pd(_mm512_set1_pd(a[3]), b, acc[3]);
        acc[4] = _mm512_fmadd_pd(_mm512_set1_pd(a[4]), b, acc[4]);
        acc[5] = _mm512_fmadd_pd(_mm512_set1_pd(a[5]), b, acc[5]);
        acc[6] = _mm512_fmadd_pd(_mm512_set1_pd(a[6]), b, acc[6]);
        acc[7] = _mm512_fmadd_pd(_mm512_set1_pd(a[7]), b, acc[7]);
        acc[8] = _mm512_fmadd_pd(_mm512_set1_pd(a[8]), b, acc[8]);
        acc[9] = _mm512_fmadd_pd(_mm512_set1_pd(a[9]), b, acc[9]);
        acc[10] = _mm512_fmadd_pd(_mm512_set1_pd(a[10]), b, acc[10]);
        acc[11] = _mm512_fmadd_pd(_mm512_set1_pd(a[11]), b, acc[11]);
    }
    double out[12 * 8];
    for (std::size_t r = 0; r < 12; ++r) _mm512_storeu_pd(out + r * 8, acc[r]);
    for (std::size_t r = 0; r < mr; ++r) {
        double* __restrict crow = c + r * ldc;
        for (std::size_t j = 0; j < nr; ++j) crow[j] += out[r * 8 + j];
    }
}

// The skinny-output kernel (9 ≤ n ≤ 16, AVX-512) turns the tile around:
// lanes run over the outputs — columns 0–7 in one zmm, columns 8..n−1 in
// a masked zmm — and each of MR ≤ 12 rows owns one such pair. Every
// k-step loads one row of op(B) (two loads, the second masked) and
// broadcasts one alpha-scaled element per row of op(A) straight from the
// operand, at row stride a_rs and k stride a_ps (either layout), so
// nothing on the A side is packed. The packed tiles at n = 10 fill 10 of
// 24 (AVX2 6×4) or 16 (AVX-512 8-wide strips) lanes per row and repack A
// every micro-panel; here a 1-row product is two FMA chains and no copy.
//
// Per output element this is the packed tiles' chain exactly: a fused
// multiply-add over p ascending from a zero accumulator, alpha applied to
// the A element first, and the k-block's sum added into C at the end —
// so the two paths agree bit for bit (pinned against forced AVX2 by
// tests/test_kernel_variants.cpp).

template <std::size_t MR, bool kScaled>
__attribute__((target("avx512f"))) void skinny_avx512(const double* __restrict a, std::size_t a_rs,
                                                      std::size_t a_ps, double alpha,
                                                      const double* __restrict b, std::size_t bs,
                                                      std::size_t kc, unsigned tail,
                                                      double* __restrict c, std::size_t ldc) {
    const __mmask8 mask = static_cast<__mmask8>(tail);
    __m512d lo[MR], hi[MR];
#pragma GCC unroll 12
    for (std::size_t r = 0; r < MR; ++r) lo[r] = hi[r] = _mm512_setzero_pd();
    for (std::size_t p = 0; p < kc; ++p) {
        const __m512d b0 = _mm512_loadu_pd(b + p * bs);
        const __m512d b1 = _mm512_maskz_loadu_pd(mask, b + p * bs + 8);
        const double* ap = a + p * a_ps;
#pragma GCC unroll 12
        for (std::size_t r = 0; r < MR; ++r) {
            const __m512d x = _mm512_set1_pd(kScaled ? alpha * ap[r * a_rs] : ap[r * a_rs]);
            lo[r] = _mm512_fmadd_pd(x, b0, lo[r]);
            hi[r] = _mm512_fmadd_pd(x, b1, hi[r]);
        }
    }
#pragma GCC unroll 12
    for (std::size_t r = 0; r < MR; ++r) {
        double* crow = c + r * ldc;
        _mm512_storeu_pd(crow, _mm512_add_pd(_mm512_loadu_pd(crow), lo[r]));
        _mm512_mask_storeu_pd(crow + 8, mask,
                              _mm512_add_pd(_mm512_maskz_loadu_pd(mask, crow + 8), hi[r]));
    }
}

using SkinnyFn = void (*)(const double* __restrict, std::size_t, std::size_t, double,
                          const double* __restrict, std::size_t, std::size_t, unsigned,
                          double* __restrict, std::size_t);

/// skinny_avx512 for every row count 1..12: entry mr − 1.
template <bool kScaled, std::size_t... R>
constexpr std::array<SkinnyFn, sizeof...(R)> skinny_kernels(std::index_sequence<R...>) {
    return {&skinny_avx512<R + 1, kScaled>...};
}
constexpr std::size_t kSkinnyMaxRows = 12;
constexpr auto kSkinnyScaled = skinny_kernels<true>(std::make_index_sequence<kSkinnyMaxRows>{});
constexpr auto kSkinnyUnscaled = skinny_kernels<false>(std::make_index_sequence<kSkinnyMaxRows>{});

bool avx2_available() {
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    }();
    return available;
}

bool avx512_available() {
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
    }();
    return available;
}
#else
bool avx2_available() { return false; }
bool avx512_available() { return false; }
#endif

#undef XS_GEMM_TILE_BODY

/// The tile function plus the geometry it was compiled for.
struct KernelConfig {
    TileFn tile;  ///< null: the skinny-output path (no register tile)
    std::size_t mr;
    std::size_t nr;
};

constexpr KernelConfig kSkinnyPath{nullptr, 0, 0};

/// A set_kernel_variant() override; kVariantUnset defers to the
/// environment (read once, below), which defers to Auto.
constexpr int kVariantUnset = -1;
std::atomic<int> g_variant_override{kVariantUnset};

KernelVariant env_variant() {
    static const KernelVariant parsed = [] {
        const char* e = std::getenv("XBARSEC_FORCE_KERNEL");
        if (e == nullptr || *e == '\0') return KernelVariant::Auto;
        const KernelVariant v = parse_kernel_variant(e);
        if (!kernel_variant_available(v)) {
            throw ConfigError(std::string("XBARSEC_FORCE_KERNEL=") + e +
                              ": this CPU does not support that kernel variant");
        }
        return v;
    }();
    return parsed;
}

KernelConfig pick_avx2(std::size_t n);
KernelConfig pick_avx512(std::size_t m, std::size_t n);

/// Picks the kernel for one product. Auto takes the widest arm the CPU
/// supports, with narrower geometry for skinny outputs (the paper's
/// 10-class heads) where a wide strip would waste most of its lanes on
/// padding; a forced variant stays inside its own arm at every shape.
///
/// The choice between same-arm geometries depends on m only through the
/// row count a tile covers — never through the per-row accumulation chain —
/// so gemm_rowstable's partition invariance survives the m-dependent pick.
KernelConfig pick_kernel(std::size_t m, std::size_t n) {
    switch (forced_kernel_variant()) {
        case KernelVariant::Portable:
            return {tile_portable_4x4, 4, 4};
#ifdef XS_GEMM_HAVE_AVX2_VARIANT
        case KernelVariant::Avx2:
            return pick_avx2(n);
        case KernelVariant::Avx512:
            return pick_avx512(m, n);
#endif
        default:
            break;
    }
#ifdef XS_GEMM_HAVE_AVX2_VARIANT
    // On avx512f hosts 9 ≤ n ≤ 16 takes the skinny-output path at every m
    // (2–6× the packed tiles from one row to 2048 rows in bench_gemm's
    // skinny series) and n ≥ 17 the 12×8 / 8×8 tiles. Narrower outputs
    // keep the AVX2 6×4 tile unless the output is tall: at n = 8 with
    // m ≥ 64 the 12-row tile amortises each strip load over twice the rows.
    if (avx512_available() && (n >= 9 || (n >= 8 && m >= 64))) return pick_avx512(m, n);
    if (avx2_available()) return pick_avx2(n);
#endif
    (void)m;
    (void)n;
    return {tile_portable_4x4, 4, 4};
}

#ifdef XS_GEMM_HAVE_AVX2_VARIANT
KernelConfig pick_avx2(std::size_t n) {
    if (n >= 12) return {tile_avx2_6x8, 6, 8};
    return {tile_avx2_6x4, 6, 4};
}

KernelConfig pick_avx512(std::size_t m, std::size_t n) {
    if (n >= 9 && n <= 16) return kSkinnyPath;
    if (m >= 12) return {tile_avx512_12x8, 12, 8};
    return {tile_avx512_8x8, 8, 8};
}
#endif

// ---- panel packing ----------------------------------------------------------

/// Packs rows [i0, i0+mr) of op(A)'s k-slice [k0, k1) into an alpha-scaled,
/// p-major, MR-interleaved micro-panel. Rows beyond mr pad with zeros so
/// the micro-kernel never branches on the row count.
void pack_a(const Operand& A, Op op, double alpha, std::size_t i0, std::size_t mr, std::size_t MR,
            std::size_t k0, std::size_t k1, double* __restrict ap) {
    const std::size_t kc = k1 - k0;
    const std::size_t lda = A.ld;
    if (op == Op::None) {
        for (std::size_t r = 0; r < MR; ++r) {
            if (r < mr) {
                const double* __restrict src = A.data + (i0 + r) * lda + k0;
                for (std::size_t p = 0; p < kc; ++p) ap[p * MR + r] = alpha * src[p];
            } else {
                for (std::size_t p = 0; p < kc; ++p) ap[p * MR + r] = 0.0;
            }
        }
    } else {
        // op(A)(i, p) = A(p, i): the stored k-rows are contiguous.
        if (mr == MR) {
            for (std::size_t p = 0; p < kc; ++p) {
                const double* __restrict src = A.data + (k0 + p) * lda + i0;
                for (std::size_t r = 0; r < MR; ++r) ap[p * MR + r] = alpha * src[r];
            }
        } else {
            for (std::size_t p = 0; p < kc; ++p) {
                const double* __restrict src = A.data + (k0 + p) * lda + i0;
                for (std::size_t r = 0; r < MR; ++r) {
                    ap[p * MR + r] = r < mr ? alpha * src[r] : 0.0;
                }
            }
        }
    }
}

/// Packs op(B)'s k-slice [k0, k1) into NR-wide strips (the tail strip is
/// zero-padded). Strip s holds op(B)(k0..k1, s·NR..s·NR+NR) p-major.
void pack_b(const Operand& B, Op op, std::size_t n, std::size_t NR, std::size_t k0, std::size_t k1,
            double* __restrict bp) {
    const std::size_t kc = k1 - k0;
    const std::size_t strips = (n + NR - 1) / NR;
    const std::size_t ldb = B.ld;
    if (op == Op::None) {
        for (std::size_t s = 0; s < strips; ++s) {
            const std::size_t j0 = s * NR;
            const std::size_t w = std::min(NR, n - j0);
            double* __restrict dst = bp + s * kc * NR;
            for (std::size_t p = 0; p < kc; ++p) {
                const double* __restrict src = B.data + (k0 + p) * ldb + j0;
                for (std::size_t j = 0; j < NR; ++j) dst[p * NR + j] = j < w ? src[j] : 0.0;
            }
        }
    } else {
        // op(B)(p, j) = B(j, p): the stored j-rows are contiguous in p.
        for (std::size_t s = 0; s < strips; ++s) {
            const std::size_t j0 = s * NR;
            double* __restrict dst = bp + s * kc * NR;
            for (std::size_t jj = 0; jj < NR; ++jj) {
                const std::size_t j = j0 + jj;
                if (j < n) {
                    const double* __restrict src = B.data + j * ldb + k0;
                    for (std::size_t p = 0; p < kc; ++p) dst[p * NR + jj] = src[p];
                } else {
                    for (std::size_t p = 0; p < kc; ++p) dst[p * NR + jj] = 0.0;
                }
            }
        }
    }
}

/// Packs the single (ragged) strip of an untransposed B starting at column
/// j0 — the tail the direct-B path cannot read in place without running
/// past the row end.
void pack_b_strip(const Operand& B, std::size_t n, std::size_t NR, std::size_t j0, std::size_t k0,
                  std::size_t k1, double* __restrict bp) {
    const std::size_t kc = k1 - k0;
    const std::size_t ldb = B.ld;
    const std::size_t w = n - j0;
    for (std::size_t p = 0; p < kc; ++p) {
        const double* __restrict src = B.data + (k0 + p) * ldb + j0;
        for (std::size_t j = 0; j < NR; ++j) bp[p * NR + j] = j < w ? src[j] : 0.0;
    }
}

/// How the micro-kernel reads op(B)'s current k-block: either packed
/// strips (strip s at `packed + s·kc·nr`, row stride nr), or — when the
/// operand is untransposed and m is too small to amortise a full repack —
/// the rows of B itself (row stride ldb), with only the zero-padded tail
/// strip packed.
struct BView {
    const double* packed = nullptr;  ///< non-null ⇒ fully packed panel
    const double* direct = nullptr;  ///< B.data() + k0·ldb (direct mode)
    const double* tail = nullptr;    ///< packed tail strip (direct mode)
    std::size_t ldb = 0;
};

/// Runs the micro-kernel over C rows [row0, row1) against one B k-block.
/// Each worker packs its own A micro-panels (thread-local buffer); the B
/// panel is shared read-only.
void gemm_rows(const KernelConfig& cfg, double alpha, const Operand& A, Op opA, const BView& bview,
               std::size_t n, std::size_t k0, std::size_t k1, std::size_t row0, std::size_t row1,
               const Output& C) {
    const std::size_t kc = k1 - k0;
    const std::size_t strips = (n + cfg.nr - 1) / cfg.nr;
    const std::size_t ldc = C.ld;

    // The A micro-panel is per-worker scratch: each worker bumps its own
    // thread arena, and the Scope rewinds it on exit, so nested pooled
    // GEMMs interleave cleanly on one thread (LIFO) and never on two.
    Arena& arena = thread_arena();
    const Arena::Scope scratch(arena);
    double* const ap = arena.alloc<double>(cfg.mr * kc).data();

    for (std::size_t i = row0; i < row1; i += cfg.mr) {
        const std::size_t mr = std::min(cfg.mr, row1 - i);
        pack_a(A, opA, alpha, i, mr, cfg.mr, k0, k1, ap);
        for (std::size_t s = 0; s < strips; ++s) {
            const std::size_t j0 = s * cfg.nr;
            const double* bp;
            std::size_t bs;
            if (bview.packed != nullptr) {
                bp = bview.packed + s * kc * cfg.nr;
                bs = cfg.nr;
            } else if (j0 + cfg.nr <= n) {
                bp = bview.direct + j0;
                bs = bview.ldb;
            } else {
                bp = bview.tail;
                bs = cfg.nr;
            }
            cfg.tile(ap, bp, bs, kc, C.data + i * ldc + j0, ldc, mr, std::min(cfg.nr, n - j0));
        }
    }
}

/// The skinny-output path (see skinny_avx512): C += alpha·op(A)·op(B) for
/// 9 ≤ n ≤ 16. Rows run through the kernel twelve at a time against one
/// k-block of op(B) — read in place when untransposed, else transposed
/// into a kc×n block first — and row panels shard over the pool like the
/// packed path's.
#ifdef XS_GEMM_HAVE_AVX2_VARIANT
void gemm_skinny(double alpha, const Operand& A, Op opA, const Operand& B, Op opB,
                 const Output& C, std::size_t m, std::size_t n, std::size_t kA,
                 ThreadPool* pool) {
    const unsigned tail = (1u << (n - 8)) - 1;
    const std::size_t a_rs = opA == Op::None ? A.ld : 1;
    const std::size_t a_ps = opA == Op::None ? 1 : A.ld;
    const auto& kernels = alpha == 1.0 ? kSkinnyUnscaled : kSkinnyScaled;

    Arena& arena = thread_arena();
    const Arena::Scope scratch(arena);
    double* const bblock =
        opB == Op::None ? nullptr : arena.alloc<double>(std::min(kBlockK, kA) * n).data();

    const bool shard = sharded(pool, m, n, kA);
    for (std::size_t k0 = 0; k0 < kA; k0 += kBlockK) {
        const std::size_t kc = std::min(k0 + kBlockK, kA) - k0;
        const double* b = B.data + k0 * B.ld;
        std::size_t bs = B.ld;
        if (opB == Op::Transpose) {
            for (std::size_t j = 0; j < n; ++j) {
                const double* __restrict src = B.data + j * B.ld + k0;
                for (std::size_t p = 0; p < kc; ++p) bblock[p * n + j] = src[p];
            }
            b = bblock;
            bs = n;
        }
        auto rows = [&](std::size_t row0, std::size_t row1) {
            for (std::size_t i = row0; i < row1; i += kSkinnyMaxRows) {
                const std::size_t mr = std::min(kSkinnyMaxRows, row1 - i);
                kernels[mr - 1](A.data + i * a_rs + k0 * a_ps, a_rs, a_ps, alpha, b, bs, kc, tail,
                                C.data + i * C.ld, C.ld);
            }
        };
        if (shard) {
            const std::size_t panels = (m + kRowsPerPanel - 1) / kRowsPerPanel;
            parallel_for(*pool, panels, [&](std::size_t t) {
                const std::size_t r0 = t * kRowsPerPanel;
                rows(r0, std::min(r0 + kRowsPerPanel, m));
            });
        } else {
            rows(0, m);
        }
    }
}
#endif

/// C += alpha·op(A)·op(B), shapes already validated, beta already applied.
void gemm_dispatch(double alpha, const Operand& A, Op opA, const Operand& B, Op opB,
                   const Output& C, std::size_t m, std::size_t n, std::size_t kA,
                   ThreadPool* pool) {
    const KernelConfig cfg = pick_kernel(m, n);
#ifdef XS_GEMM_HAVE_AVX2_VARIANT
    if (cfg.tile == nullptr) {
        gemm_skinny(alpha, A, opA, B, opB, C, m, n, kA, pool);
        return;
    }
#endif

    // Skip the full B repack when the operand is already row-major and m is
    // too small to amortise it (the 10-output gradient GEMMs): the tiles
    // read B's rows in place and only a ragged tail strip gets packed.
    const bool direct_b = opB == Op::None && m <= 8 * cfg.mr;

    // The B panel comes off the dispatching thread's arena and is shared
    // read-only with the workers; it outlives every parallel_for below and
    // is reclaimed by the Scope when the product completes.
    Arena& arena = thread_arena();
    const Arena::Scope scratch(arena);
    const std::size_t strips = (n + cfg.nr - 1) / cfg.nr;
    const std::size_t kc_max = std::min(kBlockK, kA);
    const std::size_t panel_doubles =
        direct_b ? kc_max * cfg.nr : strips * kc_max * cfg.nr;
    const std::span<double> bpanel = arena.alloc<double>(panel_doubles);

    const bool shard = sharded(pool, m, n, kA);
    for (std::size_t k0 = 0; k0 < kA; k0 += kBlockK) {
        const std::size_t k1 = std::min(k0 + kBlockK, kA);
        BView bview;
        if (direct_b) {
            bview.direct = B.data + k0 * B.ld;
            bview.ldb = B.ld;
            if (n % cfg.nr != 0) {
                const std::size_t tail_j0 = (n / cfg.nr) * cfg.nr;
                pack_b_strip(B, n, cfg.nr, tail_j0, k0, k1, bpanel.data());
                bview.tail = bpanel.data();
            }
        } else {
            pack_b(B, opB, n, cfg.nr, k0, k1, bpanel.data());
            bview.packed = bpanel.data();
        }
        if (shard) {
            const std::size_t panels = (m + kRowsPerPanel - 1) / kRowsPerPanel;
            parallel_for(*pool, panels, [&](std::size_t t) {
                const std::size_t r0 = t * kRowsPerPanel;
                gemm_rows(cfg, alpha, A, opA, bview, n, k0, k1, r0,
                          std::min(r0 + kRowsPerPanel, m), C);
            });
        } else {
            gemm_rows(cfg, alpha, A, opA, bview, n, k0, k1, 0, m, C);
        }
    }
}

/// C = beta·C over `count` contiguous elements (0 clears, 1 keeps).
void scale_output(double beta, double* c, std::size_t count) {
    if (beta == 0.0) {
        std::fill(c, c + count, 0.0);
    } else if (beta != 1.0) {
        for (std::size_t i = 0; i < count; ++i) c[i] *= beta;
    }
}

}  // namespace

void set_kernel_variant(KernelVariant v) {
    if (!kernel_variant_available(v)) {
        throw ConfigError(std::string("set_kernel_variant(") + to_string(v) +
                          "): this CPU does not support that kernel variant");
    }
    g_variant_override.store(static_cast<int>(v), std::memory_order_relaxed);
}

KernelVariant forced_kernel_variant() {
    const int forced = g_variant_override.load(std::memory_order_relaxed);
    if (forced != kVariantUnset) return static_cast<KernelVariant>(forced);
    return env_variant();
}

bool kernel_variant_available(KernelVariant v) {
    switch (v) {
        case KernelVariant::Avx2:
            return avx2_available();
        case KernelVariant::Avx512:
            return avx512_available();
        case KernelVariant::Auto:
        case KernelVariant::Portable:
            return true;
    }
    return false;
}

const char* to_string(KernelVariant v) {
    switch (v) {
        case KernelVariant::Auto:
            return "auto";
        case KernelVariant::Portable:
            return "portable";
        case KernelVariant::Avx2:
            return "avx2";
        case KernelVariant::Avx512:
            return "avx512";
    }
    return "?";
}

KernelVariant parse_kernel_variant(const std::string& name) {
    if (name == "auto") return KernelVariant::Auto;
    if (name == "portable") return KernelVariant::Portable;
    if (name == "avx2") return KernelVariant::Avx2;
    if (name == "avx512") return KernelVariant::Avx512;
    throw ConfigError("unknown kernel variant \"" + name +
                      "\" (expected auto | portable | avx2 | avx512)");
}

static void gemm_impl(double alpha, const Matrix& A, Op opA, const Matrix& B, Op opB, double beta,
                      Matrix& C, ThreadPool* pool, bool allow_swap) {
    const std::size_t m = opA == Op::None ? A.rows() : A.cols();
    const std::size_t kA = opA == Op::None ? A.cols() : A.rows();
    const std::size_t kB = opB == Op::None ? B.rows() : B.cols();
    const std::size_t n = opB == Op::None ? B.cols() : B.rows();
    XS_EXPECTS_MSG(kA == kB, "gemm inner dimensions disagree");
    XS_EXPECTS_MSG(C.rows() == m && C.cols() == n, "gemm output shape mismatch");
    XS_EXPECTS_MSG(C.data() != A.data() && C.data() != B.data(), "gemm output aliases an input");

    scale_output(beta, C.data(), C.size());
    if (alpha == 0.0 || m == 0 || n == 0 || kA == 0) return;

    const Operand a{A.data(), A.cols()};
    const Operand b{B.data(), B.cols()};

    // Wide-and-flat products (the 10-output weight-gradient GEMMs) are
    // packing-bound: the kc×n panel repack costs more than the arithmetic
    // its few row blocks amortise. Computing the transpose instead puts
    // the long dimension on the A side — micro-panels that are packed
    // once, used, and discarded — and makes the small operand the packed
    // panel that every row block reuses. The extra transpose-add touches
    // only m·n elements.
    if (allow_swap && m <= 12 && n >= 64 && n >= 4 * m) {
        Matrix ct(n, m, 0.0);
        const Op opAt = opB == Op::None ? Op::Transpose : Op::None;
        const Op opBt = opA == Op::None ? Op::Transpose : Op::None;
        gemm_dispatch(alpha, b, opAt, a, opBt, {ct.data(), m}, n, m, kA, pool);
        for (std::size_t i = 0; i < m; ++i) {
            double* __restrict crow = C.data() + i * n;
            const double* __restrict src = ct.data() + i;
            for (std::size_t j = 0; j < n; ++j) crow[j] += src[j * m];
        }
        return;
    }

    gemm_dispatch(alpha, a, opA, b, opB, {C.data(), n}, m, n, kA, pool);
}

void gemm(double alpha, const Matrix& A, Op opA, const Matrix& B, Op opB, double beta, Matrix& C,
          ThreadPool* pool) {
    gemm_impl(alpha, A, opA, B, opB, beta, C, pool, /*allow_swap=*/true);
}

void gemm_rowstable(double alpha, const Matrix& A, Op opA, const Matrix& B, Op opB, double beta,
                    Matrix& C, ThreadPool* pool) {
    // Same kernel, minus the wide-and-flat transpose-swap heuristic: the
    // swap reorders the accumulation of every C element, and whether it
    // fires depends on m — so a caller that chops its row batch into
    // sub-batches could change results bitwise. With the swap disabled,
    // each C row's accumulation chain depends only on (k, n) and row
    // content, never on m or the pool partition (pinned by test_gemm).
    gemm_impl(alpha, A, opA, B, opB, beta, C, pool, /*allow_swap=*/false);
}

void gemm_row(double alpha, std::span<const double> a, const Matrix& B, Op opB, double beta,
              std::span<double> c) {
    const std::size_t k = opB == Op::None ? B.rows() : B.cols();
    const std::size_t n = opB == Op::None ? B.cols() : B.rows();
    XS_EXPECTS_MSG(a.size() == k, "gemm_row inner dimensions disagree");
    XS_EXPECTS_MSG(c.size() == n, "gemm_row output length mismatch");
    XS_EXPECTS_MSG(c.data() != a.data() && c.data() != B.data(), "gemm_row output aliases an input");

    scale_output(beta, c.data(), n);
    if (alpha == 0.0 || n == 0 || k == 0) return;
    gemm_dispatch(alpha, {a.data(), k}, Op::None, {B.data(), B.cols()}, opB, {c.data(), n}, 1, n, k,
                  nullptr);
}

Matrix matmul(const Matrix& A, const Matrix& B) { return matmul(A, Op::None, B, Op::None); }

Matrix matmul(const Matrix& A, Op opA, const Matrix& B, Op opB) {
    const std::size_t m = opA == Op::None ? A.rows() : A.cols();
    const std::size_t n = opB == Op::None ? B.cols() : B.rows();
    Matrix C(m, n, 0.0);
    gemm(1.0, A, opA, B, opB, 0.0, C);
    return C;
}

}  // namespace xbarsec::tensor
