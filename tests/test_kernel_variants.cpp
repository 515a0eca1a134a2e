// Kernel-variant conformance: every ISA arm of the GEMM dispatcher obeys
// the same contracts.
//
// The dispatcher compiles a portable 4×4 tile plus AVX2 (6×8/6×4) and
// AVX-512 (12×8/8×8 and the skinny-output 9 ≤ n ≤ 16 path) arms and picks
// at runtime. This suite forces each
// variant the host supports via set_kernel_variant() and re-asserts the
// kernel-layer contracts per variant:
//   * correctness against the reference triple loop, all transpose
//     combinations, alpha/beta cases;
//   * pool-sharded == serial, bit for bit;
//   * gemm_rowstable's scalar-vs-batch agreement — any row sub-batch
//     (down to single rows) reproduces the full product's bits;
//   * cross-variant agreement to rounding tolerance.
// ctest runs this as part of the `kernel` label; the full test_gemm suite
// additionally runs once per variant via XBARSEC_FORCE_KERNEL (see
// CMakeLists.txt).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "xbarsec/common/error.hpp"
#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/tensor/gemm.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::tensor {
namespace {

/// Restores the entry state on scope exit so a forced variant never leaks
/// into other tests in this binary.
class VariantGuard {
public:
    VariantGuard() : saved_(forced_kernel_variant()) {}
    ~VariantGuard() { set_kernel_variant(saved_); }

private:
    KernelVariant saved_;
};

std::vector<KernelVariant> available_variants() {
    std::vector<KernelVariant> out{KernelVariant::Portable};
    if (kernel_variant_available(KernelVariant::Avx2)) out.push_back(KernelVariant::Avx2);
    if (kernel_variant_available(KernelVariant::Avx512)) out.push_back(KernelVariant::Avx512);
    return out;
}

Matrix reference_matmul(const Matrix& A, const Matrix& B) {
    Matrix C(A.rows(), B.cols(), 0.0);
    for (std::size_t i = 0; i < A.rows(); ++i)
        for (std::size_t k = 0; k < A.cols(); ++k)
            for (std::size_t j = 0; j < B.cols(); ++j) C(i, j) += A(i, k) * B(k, j);
    return C;
}

TEST(KernelVariants, NamesRoundTripAndParseRejectsUnknown) {
    for (const KernelVariant v : {KernelVariant::Auto, KernelVariant::Portable,
                                  KernelVariant::Avx2, KernelVariant::Avx512}) {
        EXPECT_EQ(parse_kernel_variant(to_string(v)), v);
    }
    EXPECT_THROW(parse_kernel_variant("sse9"), ConfigError);
    EXPECT_THROW(parse_kernel_variant(""), ConfigError);
}

TEST(KernelVariants, ForcingAnUnavailableVariantThrows) {
    VariantGuard guard;
    for (const KernelVariant v : {KernelVariant::Avx2, KernelVariant::Avx512}) {
        if (!kernel_variant_available(v)) {
            EXPECT_THROW(set_kernel_variant(v), ConfigError) << to_string(v);
        }
    }
    // Portable and Auto are always forceable.
    set_kernel_variant(KernelVariant::Portable);
    EXPECT_EQ(forced_kernel_variant(), KernelVariant::Portable);
    set_kernel_variant(KernelVariant::Auto);
    EXPECT_EQ(forced_kernel_variant(), KernelVariant::Auto);
}

TEST(KernelVariants, EveryVariantMatchesReferenceAcrossShapesAndOps) {
    VariantGuard guard;
    for (const KernelVariant v : available_variants()) {
        set_kernel_variant(v);
        Rng rng(41);
        // Shapes spanning every dispatch path: sub-tile, single full tile,
        // multiple k-blocks, ragged tails, the paper's 10-class heads, and
        // rows past every MR geometry (4/6/8/12).
        const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
            {1, 1, 1}, {3, 5, 7},  {13, 300, 10}, {33, 64, 33},
            {12, 7, 8}, {65, 257, 19}, {10, 784, 12},
        };
        for (const auto& [m, k, n] : shapes) {
            for (const Op opA : {Op::None, Op::Transpose}) {
                for (const Op opB : {Op::None, Op::Transpose}) {
                    const Matrix A = opA == Op::None ? Matrix::random_normal(rng, m, k)
                                                     : Matrix::random_normal(rng, k, m);
                    const Matrix B = opB == Op::None ? Matrix::random_normal(rng, k, n)
                                                     : Matrix::random_normal(rng, n, k);
                    const Matrix C0 = Matrix::random_normal(rng, m, n);
                    for (const auto& [alpha, beta] :
                         {std::pair{1.0, 0.0}, {2.0, 1.0}, {-0.5, 0.25}}) {
                        Matrix C = C0;
                        gemm(alpha, A, opA, B, opB, beta, C);
                        const Matrix Aeff = opA == Op::None ? A : A.transposed();
                        const Matrix Beff = opB == Op::None ? B : B.transposed();
                        Matrix expected = reference_matmul(Aeff, Beff);
                        for (std::size_t i = 0; i < m; ++i) {
                            for (std::size_t j = 0; j < n; ++j) {
                                ASSERT_NEAR(C(i, j), alpha * expected(i, j) + beta * C0(i, j),
                                            1e-9)
                                    << to_string(v) << " m=" << m << " k=" << k << " n=" << n;
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(KernelVariants, EveryVariantIsPoolPartitionBitExact) {
    VariantGuard guard;
    ThreadPool pool(3);
    for (const KernelVariant v : available_variants()) {
        set_kernel_variant(v);
        Rng rng(43);
        const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
            {256, 300, 100}, {197, 64, 129}, {512, 784, 10},
        };
        for (const auto& [m, k, n] : shapes) {
            const Matrix A = Matrix::random_normal(rng, m, k);
            const Matrix B = Matrix::random_normal(rng, k, n);
            Matrix serial(m, n, 0.0), pooled(m, n, 0.0);
            gemm(1.0, A, Op::None, B, Op::None, 0.0, serial);
            gemm(1.0, A, Op::None, B, Op::None, 0.0, pooled, &pool);
            ASSERT_EQ(serial, pooled) << to_string(v) << " m=" << m << " k=" << k << " n=" << n;
        }
    }
}

TEST(KernelVariants, ScalarVsBatchAgreementPerVariant) {
    // The crossbar's reproducibility contract: querying row-by-row (the
    // scalar path) must reproduce the batched product bit for bit under
    // every variant. gemm_rowstable carries that contract; single-row
    // sub-batches are exactly the scalar case.
    VariantGuard guard;
    for (const KernelVariant v : available_variants()) {
        set_kernel_variant(v);
        Rng rng(47);
        const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
            {64, 784, 10},  // batched-inference shape
            {37, 33, 100},  // ragged, wide outputs
            {25, 8, 8},     // one full AVX-512 strip
        };
        for (const auto& [m, k, n] : shapes) {
            const Matrix A = Matrix::random_normal(rng, m, k);
            const Matrix B = Matrix::random_normal(rng, k, n);
            Matrix full(m, n, 0.0);
            gemm_rowstable(1.0, A, Op::None, B, Op::None, 0.0, full);
            for (std::size_t r = 0; r < m; ++r) {
                Matrix row(1, k);
                for (std::size_t c = 0; c < k; ++c) row(0, c) = A(r, c);
                Matrix out(1, n, 0.0);
                gemm_rowstable(1.0, row, Op::None, B, Op::None, 0.0, out);
                for (std::size_t j = 0; j < n; ++j) {
                    ASSERT_EQ(out(0, j), full(r, j))
                        << to_string(v) << " row " << r << " m=" << m << " n=" << n;
                }
            }
        }
    }
}

// ---- the skinny-output path (AVX-512, 9 ≤ n ≤ 16) ---------------------------
//
// The skinny kernel broadcasts A straight from the operand and runs lanes
// over the outputs, but keeps the packed tiles' per-element chain (alpha
// applied to A first, one fused chain per 256-deep k-block, blocks added
// into C in order). So under Auto and forced AVX-512 every product must
// equal the forced-AVX2 packed tiles bit for bit — across the selection
// edges (n = 8 and 17 stay on the packed tiles), ragged row tails below
// and above the 12-row kernel, k straddling the block boundary, both
// transposes, and the alpha/beta cases.

TEST(KernelVariants, SkinnyPathEqualsPackedTilesBitForBit) {
    if (!kernel_variant_available(KernelVariant::Avx512)) {
        GTEST_SKIP() << "no AVX-512 on this host";
    }
    VariantGuard guard;
    ThreadPool pool(3);
    const std::size_t ms[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 32, 128, 784, 2048};
    const std::size_t ns[] = {8, 9, 10, 12, 16, 17};
    const std::size_t ks[] = {1, 255, 256, 257, 784};
    const std::pair<double, double> alpha_beta[] = {
        {1.0, 0.0},    {1.0, 0.5},    {1.0, 1.0},    {1.0 / 32, 0.0}, {1.0 / 32, 0.5},
        {1.0 / 32, 1.0}, {0.3, 0.0},  {0.3, 0.5},    {0.3, 1.0},
    };
    std::size_t cases = 0;
    Rng rng(61);
    for (const std::size_t m : ms) {
        // Every alpha/beta pair at every shape up to m = 128; the two tall
        // sizes rotate through the pairs (and check pooled == serial).
        const bool tall = m > 128;
        for (const std::size_t k : ks) {
            for (const Op opA : {Op::None, Op::Transpose}) {
                const Matrix A = opA == Op::None ? Matrix::random_normal(rng, m, k)
                                                 : Matrix::random_normal(rng, k, m);
                for (const std::size_t n : ns) {
                    for (const Op opB : {Op::None, Op::Transpose}) {
                        const Matrix B = opB == Op::None ? Matrix::random_normal(rng, k, n)
                                                         : Matrix::random_normal(rng, n, k);
                        const Matrix C0 = Matrix::random_normal(rng, m, n);
                        for (std::size_t ab = 0; ab < std::size(alpha_beta); ++ab) {
                            if (tall && ab != cases % std::size(alpha_beta)) continue;
                            const auto [alpha, beta] = alpha_beta[ab];
                            auto run = [&](KernelVariant v, ThreadPool* p) {
                                set_kernel_variant(v);
                                Matrix C = C0;
                                gemm(alpha, A, opA, B, opB, beta, C, p);
                                return C;
                            };
                            const Matrix packed = run(KernelVariant::Avx2, nullptr);
                            ASSERT_EQ(run(KernelVariant::Auto, nullptr), packed)
                                << "auto m=" << m << " n=" << n << " k=" << k
                                << " opA=" << (opA == Op::Transpose)
                                << " opB=" << (opB == Op::Transpose) << " alpha=" << alpha
                                << " beta=" << beta;
                            ASSERT_EQ(run(KernelVariant::Avx512, nullptr), packed)
                                << "avx512 m=" << m << " n=" << n << " k=" << k
                                << " opA=" << (opA == Op::Transpose)
                                << " opB=" << (opB == Op::Transpose) << " alpha=" << alpha
                                << " beta=" << beta;
                            if (tall) {
                                ASSERT_EQ(run(KernelVariant::Auto, &pool), packed)
                                    << "pooled m=" << m << " n=" << n << " k=" << k;
                            }
                            ++cases;
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(cases, 10000u);
}

TEST(KernelVariants, SkinnyPathRowsAreBatchInvariant) {
    // gemm_rowstable's contract on the skinny path: single-row sub-batches
    // (and gemm_row over spans) reproduce the full product's rows.
    if (!kernel_variant_available(KernelVariant::Avx512)) {
        GTEST_SKIP() << "no AVX-512 on this host";
    }
    VariantGuard guard;
    set_kernel_variant(KernelVariant::Auto);
    Rng rng(67);
    const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
        {29, 784, 10}, {13, 257, 9}, {40, 300, 16}, {784, 32, 10},
    };
    for (const auto& [m, k, n] : shapes) {
        for (const Op opB : {Op::None, Op::Transpose}) {
            const Matrix A = Matrix::random_normal(rng, m, k);
            const Matrix B = opB == Op::None ? Matrix::random_normal(rng, k, n)
                                             : Matrix::random_normal(rng, n, k);
            Matrix full(m, n, 0.0);
            gemm_rowstable(1.0, A, Op::None, B, opB, 0.0, full);
            for (std::size_t r = 0; r < m; ++r) {
                Matrix row(1, k);
                for (std::size_t c = 0; c < k; ++c) row(0, c) = A(r, c);
                Matrix out(1, n, 0.0);
                gemm_rowstable(1.0, row, Op::None, B, opB, 0.0, out);
                ASSERT_EQ(0, std::memcmp(out.data(), full.row_span(r).data(), n * sizeof(double)))
                    << "row " << r << " m=" << m << " n=" << n << " k=" << k;
                std::vector<double> span_out(n, 0.0);
                gemm_row(1.0, A.row_span(r), B, opB, 0.0, span_out);
                ASSERT_EQ(0, std::memcmp(span_out.data(), full.row_span(r).data(),
                                         n * sizeof(double)))
                    << "gemm_row " << r << " m=" << m << " n=" << n << " k=" << k;
            }
        }
    }
}

TEST(KernelVariants, GemmRowMatchesGemmOnEveryVariant) {
    // gemm_row is one row of gemm_rowstable on every arm, alpha/beta
    // included, at skinny and non-skinny widths.
    VariantGuard guard;
    for (const KernelVariant v : available_variants()) {
        set_kernel_variant(v);
        Rng rng(71);
        for (const std::size_t n : {3, 8, 10, 16, 33}) {
            for (const Op opB : {Op::None, Op::Transpose}) {
                const Matrix a = Matrix::random_normal(rng, 1, 300);
                const Matrix B = opB == Op::None ? Matrix::random_normal(rng, 300, n)
                                                 : Matrix::random_normal(rng, n, 300);
                const Matrix c0 = Matrix::random_normal(rng, 1, n);
                Matrix expected = c0;
                gemm_rowstable(0.3, a, Op::None, B, opB, 0.5, expected);
                Matrix got = c0;
                gemm_row(0.3, a.row_span(0), B, opB, 0.5, got.row_span(0));
                ASSERT_EQ(got, expected) << to_string(v) << " n=" << n;
            }
        }
        EXPECT_THROW(gemm_row(1.0, std::vector<double>(5, 1.0), Matrix(4, 3), Op::None, 0.0,
                              std::span<double>()),
                     ContractViolation);
    }
}

TEST(KernelVariants, VariantsAgreeWithEachOtherToRounding) {
    VariantGuard guard;
    const auto variants = available_variants();
    Rng rng(53);
    const Matrix A = Matrix::random_normal(rng, 40, 120);
    const Matrix B = Matrix::random_normal(rng, 120, 35);
    std::vector<Matrix> results;
    for (const KernelVariant v : variants) {
        set_kernel_variant(v);
        Matrix C(40, 35, 0.0);
        gemm(1.0, A, Op::None, B, Op::None, 0.0, C);
        results.push_back(std::move(C));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        for (std::size_t r = 0; r < 40; ++r) {
            for (std::size_t j = 0; j < 35; ++j) {
                ASSERT_NEAR(results[0](r, j), results[i](r, j), 1e-10)
                    << to_string(variants[i]) << " vs " << to_string(variants[0]);
            }
        }
    }
}

TEST(KernelVariants, MatvecAgreesWithGemmPerVariant) {
    // The BLAS-2 layer is a separate code path from the GEMM tiles; the
    // two must stay numerically interchangeable under every variant.
    VariantGuard guard;
    for (const KernelVariant v : available_variants()) {
        set_kernel_variant(v);
        Rng rng(59);
        const Matrix W = Matrix::random_normal(rng, 30, 90);
        const Matrix U = Matrix::random_normal(rng, 1, 90);
        Vector u(90);
        for (std::size_t i = 0; i < 90; ++i) u[i] = U(0, i);
        const Vector s = matvec(W, u);
        Matrix S(1, 30, 0.0);
        gemm(1.0, U, Op::None, W, Op::Transpose, 0.0, S);
        for (std::size_t i = 0; i < 30; ++i) {
            ASSERT_NEAR(s[i], S(0, i), 1e-10) << to_string(v) << " i=" << i;
        }
    }
}

}  // namespace
}  // namespace xbarsec::tensor
