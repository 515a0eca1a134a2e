// Surrogate-training tests (Eq. 9): the power term's math, its pull on
// the surrogate's column 1-norms, the closed-form Q ≥ N baseline, and the
// AVX-512 minibatch step pinned bit for bit against the reference loop.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "xbarsec/attack/surrogate.hpp"
#include "xbarsec/common/error.hpp"
#include "xbarsec/stats/correlation.hpp"
#include "xbarsec/tensor/gemm.hpp"
#include "xbarsec/tensor/ops.hpp"

// Counts heap allocations so the AVX-512 step can be pinned allocation-free
// per minibatch.
#include "alloc_counter.hpp"

namespace xbarsec::attack {
namespace {

/// Builds query data from a known linear oracle W: outputs = U·Wᵀ and
/// power = U·colabs(W) (the ideal crossbar's normalised total current).
QueryDataset make_queries(const tensor::Matrix& W, const tensor::Matrix& U) {
    QueryDataset q;
    q.inputs = U;
    q.outputs = tensor::Matrix(U.rows(), W.rows(), 0.0);
    tensor::gemm(1.0, U, tensor::Op::None, W, tensor::Op::Transpose, 0.0, q.outputs);
    q.power = surrogate_power_batch(W, U);
    return q;
}

TEST(SurrogatePower, SingleAndBatchAgree) {
    Rng rng(1);
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, 4, 6);
    nn::DenseLayer layer(4, 6);
    layer.weights() = W;
    const nn::SingleLayerNet net(std::move(layer), nn::Activation::Linear, nn::Loss::Mse);
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 5, 6);
    const tensor::Vector batch = surrogate_power_batch(W, U);
    for (std::size_t r = 0; r < 5; ++r) {
        EXPECT_NEAR(batch[r], surrogate_power(net, U.row(r)), 1e-12);
    }
}

TEST(SurrogatePower, EqualsDotWithColumnL1) {
    Rng rng(2);
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, 3, 5);
    const tensor::Vector u = tensor::Vector::random_uniform(rng, 5);
    nn::DenseLayer layer(3, 5);
    layer.weights() = W;
    const nn::SingleLayerNet net(std::move(layer), nn::Activation::Linear, nn::Loss::Mse);
    EXPECT_NEAR(surrogate_power(net, u), tensor::dot(tensor::column_abs_sums(W), u), 1e-12);
}

SurrogateConfig quick_config(double lambda, std::size_t epochs = 150) {
    SurrogateConfig c;
    c.power_loss_weight = lambda;
    c.train.epochs = epochs;
    c.train.batch_size = 16;
    c.train.learning_rate = 0.05;
    c.train.momentum = 0.9;
    c.train.final_lr_fraction = 0.1;
    return c;
}

TEST(TrainSurrogate, OutputLossDecreases) {
    Rng rng(3);
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, 3, 8);
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 64, 8);
    const QueryDataset q = make_queries(W, U);
    const SurrogateTrainResult fit = train_surrogate(q, quick_config(0.0));
    ASSERT_FALSE(fit.epoch_output_loss.empty());
    EXPECT_LT(fit.epoch_output_loss.back(), 0.2 * fit.epoch_output_loss.front());
}

TEST(TrainSurrogate, LambdaZeroIgnoresPowerChannel) {
    Rng rng(4);
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, 3, 8);
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 32, 8);
    QueryDataset q = make_queries(W, U);
    const SurrogateTrainResult a = train_surrogate(q, quick_config(0.0));
    // Corrupt the power channel; with λ=0 the fit must be identical.
    for (std::size_t i = 0; i < q.power.size(); ++i) q.power[i] = 1e9;
    const SurrogateTrainResult b = train_surrogate(q, quick_config(0.0));
    EXPECT_EQ(a.surrogate.weights(), b.surrogate.weights());
    EXPECT_DOUBLE_EQ(a.epoch_power_loss.back(), 0.0);
}

TEST(TrainSurrogate, PowerTermPullsColumnNormsTowardOracle) {
    // Few queries (Q << N): outputs underdetermine W, and the power term
    // is what drags the surrogate's column 1-norm profile toward the
    // oracle's. Compare λ=0 vs λ>0 on the 1-norm correlation.
    Rng rng(5);
    const std::size_t N = 40, M = 3, Q = 8;
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, M, N);
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, Q, N);
    const QueryDataset q = make_queries(W, U);

    const SurrogateTrainResult base = train_surrogate(q, quick_config(0.0, 400));
    const SurrogateTrainResult power = train_surrogate(q, quick_config(0.02, 400));

    const tensor::Vector truth = tensor::column_abs_sums(W);
    const double corr_base =
        stats::pearson(tensor::column_abs_sums(base.surrogate.weights()), truth);
    const double corr_power =
        stats::pearson(tensor::column_abs_sums(power.surrogate.weights()), truth);
    EXPECT_GT(corr_power, corr_base)
        << "power-aware surrogate should match the oracle's 1-norm profile better";
    // And the power loss itself must have dropped substantially.
    EXPECT_LT(power.epoch_power_loss.back(), 0.5 * power.epoch_power_loss.front());
}

TEST(TrainSurrogate, ValidatesShapes) {
    QueryDataset q;
    q.inputs = tensor::Matrix(4, 3);
    q.outputs = tensor::Matrix(3, 2);  // row mismatch
    q.power = tensor::Vector(4);
    EXPECT_THROW(train_surrogate(q, quick_config(0.0)), ConfigError);
    q.outputs = tensor::Matrix(4, 2);
    q.power = tensor::Vector(2);  // power mismatch
    EXPECT_THROW(train_surrogate(q, quick_config(0.0)), ConfigError);
    q.power = tensor::Vector(4);
    SurrogateConfig bad = quick_config(-0.1);
    EXPECT_THROW(train_surrogate(q, bad), ContractViolation);
}

TEST(LeastSquaresSurrogate, RecoversOracleExactlyWhenQAtLeastN) {
    // Section IV: W = U†·Ŷ when Q ≥ N — power information is redundant.
    Rng rng(6);
    const std::size_t N = 15, M = 4, Q = 25;
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, M, N);
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, Q, N);
    const QueryDataset q = make_queries(W, U);
    const nn::SingleLayerNet surrogate = fit_least_squares_surrogate(q);
    for (std::size_t i = 0; i < M; ++i)
        for (std::size_t j = 0; j < N; ++j)
            EXPECT_NEAR(surrogate.weights()(i, j), W(i, j), 1e-8);
}

TEST(LeastSquaresSurrogate, RidgePathHandlesQBelowN) {
    Rng rng(7);
    const std::size_t N = 20, M = 3, Q = 6;
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, M, N);
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, Q, N);
    const QueryDataset q = make_queries(W, U);
    const nn::SingleLayerNet surrogate = fit_least_squares_surrogate(q, 1e-6);
    // Underdetermined: cannot equal W, but must fit the queries well.
    const tensor::Matrix pred = surrogate.layer().forward_batch(U);
    for (std::size_t r = 0; r < Q; ++r)
        for (std::size_t c = 0; c < M; ++c) EXPECT_NEAR(pred(r, c), q.outputs(r, c), 1e-3);
}

TEST(TrainSurrogate, DeterministicGivenSeeds) {
    Rng rng(8);
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, 2, 6);
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 16, 6);
    const QueryDataset q = make_queries(W, U);
    const SurrogateTrainResult a = train_surrogate(q, quick_config(0.01, 50));
    const SurrogateTrainResult b = train_surrogate(q, quick_config(0.01, 50));
    EXPECT_EQ(a.surrogate.weights(), b.surrogate.weights());
}

TEST(TrainSurrogate, MinibatchIterationOrderUnchangedByWorkspaceReuse) {
    // Regression guard for the workspace-arena refactor: replay one epoch
    // by hand — explicit row gathers in the documented shuffle order,
    // ragged final batch included — and demand bit-identical weights. If
    // the trainer's gather/batch iteration order ever drifted (e.g. a
    // stale workspace row leaking into a batch), this breaks.
    Rng rng(9);
    const std::size_t N = 7, M = 3, Q = 23;  // 23 % 8 != 0: ragged tail
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, M, N);
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, Q, N);
    const QueryDataset q = make_queries(W, U);

    SurrogateConfig c;
    c.power_loss_weight = 0.0;
    c.train.epochs = 1;
    c.train.batch_size = 8;
    c.train.learning_rate = 0.1;
    c.train.momentum = 0.0;
    c.train.optimizer = nn::OptimizerKind::Sgd;
    const SurrogateTrainResult got = train_surrogate(q, c);

    Rng init(c.init_seed);
    nn::SingleLayerNet ref(init, N, M, nn::Activation::Linear, nn::Loss::Mse);
    auto opt = nn::make_optimizer(c.train.optimizer, c.train.learning_rate, c.train.momentum);
    const std::size_t slot = opt->register_parameter(ref.weights().size());

    Rng shuffle(c.train.shuffle_seed);
    std::vector<std::size_t> order(Q);
    for (std::size_t i = 0; i < Q; ++i) order[i] = i;
    shuffle.shuffle(order);

    tensor::Matrix grad(M, N, 0.0);
    for (std::size_t lo = 0; lo < Q; lo += c.train.batch_size) {
        const std::size_t hi = std::min(lo + c.train.batch_size, Q);
        const std::size_t b = hi - lo;
        tensor::Matrix xb(b, N), tb(b, M);
        for (std::size_t r = 0; r < b; ++r) {
            for (std::size_t j = 0; j < N; ++j) xb(r, j) = q.inputs(order[lo + r], j);
            for (std::size_t j = 0; j < M; ++j) tb(r, j) = q.outputs(order[lo + r], j);
        }
        tensor::Matrix sb(b, M, 0.0);
        tensor::gemm(1.0, xb, tensor::Op::None, ref.weights(), tensor::Op::Transpose, 0.0, sb);
        tensor::Matrix delta(b, M);
        const double out_scale = 2.0 / static_cast<double>(M);
        for (std::size_t r = 0; r < b; ++r) {
            for (std::size_t j = 0; j < M; ++j) delta(r, j) = out_scale * (sb(r, j) - tb(r, j));
        }
        tensor::gemm(1.0 / static_cast<double>(b), delta, tensor::Op::Transpose, xb,
                     tensor::Op::None, 0.0, grad);
        opt->step(slot, {ref.weights().data(), ref.weights().size()},
                  {grad.data(), grad.size()});
    }
    EXPECT_EQ(got.surrogate.weights(), ref.weights());
}

/// The Eq. 9 sign-term update as train_surrogate wrote it before it
/// became a select: one data-dependent branch per weight.
void branchy_sign_gradient(const tensor::Matrix& W, const tensor::Vector& q, double lambda,
                           tensor::Matrix& grad) {
    for (std::size_t i = 0; i < W.rows(); ++i) {
        for (std::size_t j = 0; j < W.cols(); ++j) {
            if (W(i, j) > 0.0) grad(i, j) += lambda * q[j];
            else if (W(i, j) < 0.0) grad(i, j) -= lambda * q[j];
        }
    }
}

TEST(TrainSurrogate, SignTermSelectEqualsTheBranchyUpdate) {
    // On the AVX-512 arm this runs the vectorised loop the AVX-512 step
    // uses (the 9×77 shape leaves ragged lanes), elsewhere the scalar one.
    // It is also where that step's zero-weight branch is pinned: trained
    // weights start from a Glorot draw and never land on exact zeros.
    Rng rng(31);
    for (const auto& [M, N] : {std::pair{10ul, 784ul}, std::pair{9ul, 77ul}}) {
        tensor::Matrix W = tensor::Matrix::random_normal(rng, M, N);
        // Zero weights of both signs contribute nothing; keep some of each,
        // and one all-zero column.
        for (std::size_t j = 0; j < N; j += 13) W(j % M, j) = 0.0;
        for (std::size_t j = 5; j < N; j += 17) W(j % M, j) = -0.0;
        for (std::size_t i = 0; i < M; ++i) W(i, 3) = 0.0;
        tensor::Vector q = tensor::Vector::random_normal(rng, N);
        for (std::size_t j = 0; j < N; j += 29) q[j] = 0.0;
        const tensor::Matrix g0 = tensor::Matrix::random_normal(rng, M, N);
        for (const double lambda : {0.002, 0.3, 1.0}) {
            tensor::Matrix expected = g0;
            branchy_sign_gradient(W, q, lambda, expected);
            tensor::Matrix got = g0;
            add_power_sign_gradient(W, q.span(), lambda, got);
            ASSERT_EQ(0, std::memcmp(got.data(), expected.data(), got.size() * sizeof(double)))
                << M << "x" << N << " lambda " << lambda;
        }
        tensor::Matrix wrong(3, 3);
        EXPECT_THROW(add_power_sign_gradient(W, q.span(), 0.1, wrong), ContractViolation);
    }
}

TEST(TrainSurrogate, PowerTermEpochMatchesABranchyReplay) {
    // One λ > 0 epoch replayed by hand with the branchy sign update: the
    // trainer's weights must come out bit-identical.
    Rng rng(10);
    const std::size_t N = 40, M = 4, Q = 37;
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, M, N);
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, Q, N);
    const QueryDataset q = make_queries(W, U);

    SurrogateConfig c;
    c.power_loss_weight = 0.01;
    c.train.epochs = 1;
    c.train.batch_size = 8;
    c.train.learning_rate = 0.1;
    c.train.momentum = 0.0;
    c.train.optimizer = nn::OptimizerKind::Sgd;
    const SurrogateTrainResult got = train_surrogate(q, c);

    Rng init(c.init_seed);
    nn::SingleLayerNet ref(init, N, M, nn::Activation::Linear, nn::Loss::Mse);
    auto opt = nn::make_optimizer(c.train.optimizer, c.train.learning_rate, c.train.momentum);
    const std::size_t slot = opt->register_parameter(ref.weights().size());
    Rng shuffle(c.train.shuffle_seed);
    std::vector<std::size_t> order(Q);
    for (std::size_t i = 0; i < Q; ++i) order[i] = i;
    shuffle.shuffle(order);

    tensor::Matrix grad(M, N, 0.0);
    for (std::size_t lo = 0; lo < Q; lo += c.train.batch_size) {
        const std::size_t hi = std::min(lo + c.train.batch_size, Q);
        const std::size_t b = hi - lo;
        const double inv_b = 1.0 / static_cast<double>(b);
        tensor::Matrix xb(b, N), tb(b, M);
        for (std::size_t r = 0; r < b; ++r) {
            for (std::size_t j = 0; j < N; ++j) xb(r, j) = q.inputs(order[lo + r], j);
            for (std::size_t j = 0; j < M; ++j) tb(r, j) = q.outputs(order[lo + r], j);
        }
        tensor::Matrix sb(b, M, 0.0);
        tensor::gemm(1.0, xb, tensor::Op::None, ref.weights(), tensor::Op::Transpose, 0.0, sb);
        tensor::Matrix delta(b, M);
        const double out_scale = 2.0 / static_cast<double>(M);
        for (std::size_t r = 0; r < b; ++r) {
            for (std::size_t j = 0; j < M; ++j) delta(r, j) = out_scale * (sb(r, j) - tb(r, j));
        }
        tensor::gemm(inv_b, delta, tensor::Op::Transpose, xb, tensor::Op::None, 0.0, grad);
        const tensor::Vector p_hat = surrogate_power_batch(ref.weights(), xb);
        tensor::Vector e(b);
        for (std::size_t r = 0; r < b; ++r) e[r] = p_hat[r] - q.power[order[lo + r]];
        e *= 2.0 * inv_b;
        branchy_sign_gradient(ref.weights(), tensor::matvec_transposed(xb, e),
                              c.power_loss_weight, grad);
        opt->step(slot, {ref.weights().data(), ref.weights().size()},
                  {grad.data(), grad.size()});
    }
    EXPECT_EQ(got.surrogate.weights(), ref.weights());
}

// ---- the AVX-512 minibatch step vs train_surrogate_reference ---------------

/// Extraction-like queries: inputs in [0, 1), raw outputs and power from a
/// random oracle, scaled so that λ up to 1 trains without overflow.
QueryDataset extraction_queries(std::uint64_t seed, std::size_t Q, std::size_t N, std::size_t M) {
    Rng rng(seed);
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, M, N);
    QueryDataset q = make_queries(W, tensor::Matrix::random_uniform(rng, Q, N));
    q.power *= 0.01;
    return q;
}

SurrogateConfig step_config(double lambda, std::size_t batch, std::size_t N) {
    SurrogateConfig c;
    c.power_loss_weight = lambda;
    c.train.epochs = 3;
    c.train.batch_size = batch;
    c.train.learning_rate = 1.0 / static_cast<double>(N);
    c.train.momentum = 0.9;
    c.train.final_lr_fraction = 0.1;
    return c;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// train_surrogate against the reference loop: weights and both epoch
/// loss series, bit for bit. Returns a description of the first mismatch.
std::string compare_fits(const QueryDataset& q, const SurrogateConfig& c) {
    const SurrogateTrainResult got = train_surrogate(q, c);
    const SurrogateTrainResult want = train_surrogate_reference(q, c);
    const tensor::Matrix& w = got.surrogate.weights();
    const tensor::Matrix& r = want.surrogate.weights();
    std::size_t differing = 0;
    for (std::size_t i = 0; i < w.size(); ++i) {
        if (!std::isfinite(w.data()[i])) return "non-finite weights (the pin needs a finite fit)";
        if (std::memcmp(w.data() + i, r.data() + i, sizeof(double)) != 0) ++differing;
    }
    if (differing > 0) return std::to_string(differing) + " weights differ";
    if (!same_bits(got.epoch_output_loss, want.epoch_output_loss)) return "output loss differs";
    if (!same_bits(got.epoch_power_loss, want.epoch_power_loss)) return "power loss differs";
    return "";
}

TEST(Avx512Step, MatchesTheReferenceBitForBit) {
    // Batches of 1, 7, 32, 300 (two 256-row blocks of the gradient chain)
    // and 600 (three, so the blocks' summation order shows: two block sums
    // add the same either way round), each with and without a partial last
    // batch; λ = 0 skips the power term, 1 lets it dominate. N = 77 and 100
    // leave ragged lanes in every loop (N mod 16, 8 and 4, and an odd N for
    // the two-chain dot). The sign term's zero-weight branch is pinned by
    // SignTermSelectEqualsTheBranchyUpdate.
    struct BatchCase {
        std::size_t batch, Q;
    };
    const BatchCase batches[] = {{1, 20},    {7, 28},     {7, 33},    {32, 64},   {32, 70},
                                 {300, 600}, {300, 310}, {600, 1200}, {600, 1210}};
    struct Shape {
        std::size_t N, M;
    };
    for (const Shape shape : {Shape{100, 10}, Shape{77, 9}, Shape{100, 12}}) {
        for (const BatchCase bc : batches) {
            const QueryDataset q = extraction_queries(bc.Q + shape.M, bc.Q, shape.N, shape.M);
            for (const double lambda : {0.0, 0.002, 1.0}) {
                const SurrogateConfig c = step_config(lambda, bc.batch, shape.N);
                EXPECT_EQ(compare_fits(q, c), "")
                    << "N=" << shape.N << " M=" << shape.M << " batch=" << bc.batch
                    << " Q=" << bc.Q << " lambda=" << lambda;
            }
        }
    }
    // The extract workload's shape: 784 → 10, batches of 32.
    const QueryDataset q = extraction_queries(7, 256, 784, 10);
    for (const double lambda : {0.0, 0.002}) {
        EXPECT_EQ(compare_fits(q, step_config(lambda, 32, 784)), "") << "784x10 lambda=" << lambda;
    }
}

TEST(Avx512Step, FallbackConfigsRunTheReference) {
    // Output counts outside the kernels' 9..12, too few inputs, Adam and
    // plain SGD all run the reference loop, on every host and arm.
    const nn::TrainConfig sgd = step_config(0.002, 32, 100).train;
    nn::TrainConfig adam = sgd;
    adam.optimizer = nn::OptimizerKind::Adam;
    nn::TrainConfig plain = sgd;
    plain.momentum = 0.0;
    EXPECT_FALSE(avx512_surrogate_step_applies(100, 8, sgd));
    EXPECT_FALSE(avx512_surrogate_step_applies(100, 13, sgd));
    EXPECT_FALSE(avx512_surrogate_step_applies(63, 10, sgd));
    EXPECT_FALSE(avx512_surrogate_step_applies(100, 10, adam));
    EXPECT_FALSE(avx512_surrogate_step_applies(100, 10, plain));

    const QueryDataset q10 = extraction_queries(3, 70, 100, 10);
    for (const double lambda : {0.0, 1.0}) {
        SurrogateConfig c = step_config(lambda, 32, 100);
        c.train = adam;
        EXPECT_EQ(compare_fits(q10, c), "") << "adam lambda=" << lambda;
        c.train = plain;
        EXPECT_EQ(compare_fits(q10, c), "") << "momentum 0 lambda=" << lambda;
    }
    for (const std::size_t M : {8ul, 13ul}) {
        const QueryDataset q = extraction_queries(4, 70, 100, M);
        EXPECT_EQ(compare_fits(q, step_config(0.002, 32, 100)), "") << "M=" << M;
    }
}

TEST(Avx512Step, IsChosenByTheKernelVariantInEffect) {
    // Forcing the portable or AVX2 arm keeps the composed loop; the AVX-512
    // arm — forced, or Auto on an avx512f host — takes the step.
    const tensor::KernelVariant entry = tensor::forced_kernel_variant();
    const nn::TrainConfig sgd = step_config(0.0, 32, 784).train;
    tensor::set_kernel_variant(tensor::KernelVariant::Portable);
    EXPECT_FALSE(avx512_surrogate_step_applies(784, 10, sgd));
    if (tensor::kernel_variant_available(tensor::KernelVariant::Avx2)) {
        tensor::set_kernel_variant(tensor::KernelVariant::Avx2);
        EXPECT_FALSE(avx512_surrogate_step_applies(784, 10, sgd));
    }
    if (tensor::kernel_variant_available(tensor::KernelVariant::Avx512)) {
        // A build whose baseline ISA has FMA (XBARSEC_NATIVE) may contract
        // the reference loop itself, so it compiles the step out.
#ifdef __FMA__
        constexpr bool kStepBuilt = false;
#else
        constexpr bool kStepBuilt = true;
#endif
        tensor::set_kernel_variant(tensor::KernelVariant::Avx512);
        EXPECT_EQ(avx512_surrogate_step_applies(784, 10, sgd), kStepBuilt);
        tensor::set_kernel_variant(tensor::KernelVariant::Auto);
        EXPECT_EQ(avx512_surrogate_step_applies(784, 10, sgd), kStepBuilt);
    }
    tensor::set_kernel_variant(entry);
}

TEST(Avx512Step, MakesNoHeapAllocationPerMinibatch) {
    if (!avx512_surrogate_step_applies(784, 10, step_config(0.0, 32, 784).train)) {
        GTEST_SKIP() << "the AVX-512 step is not in effect on this host and arm";
    }
    const QueryDataset q = extraction_queries(5, 256, 784, 10);
    for (const double lambda : {0.0, 0.002}) {
        const auto allocations_of = [&](std::size_t epochs) {
            SurrogateConfig c = step_config(lambda, 32, 784);
            c.train.epochs = epochs;
            const std::size_t before = alloc_counter::allocations();
            (void)train_surrogate(q, c);
            return alloc_counter::allocations() - before;
        };
        (void)allocations_of(1);  // grow the thread arena to its steady-state size
        // Four more epochs are 32 more minibatch steps.
        EXPECT_EQ(allocations_of(6), allocations_of(2)) << "lambda " << lambda;
    }
}

TEST(LeastSquaresSurrogate, CallerProvidedWorkspaceIsBitIdenticalAcrossFits) {
    // fit_least_squares_surrogate with a shared Workspace must reproduce
    // the workspace-free fit exactly, including when consecutive fits
    // reshape the normal-equations temporaries (different N between fits).
    Rng rng(21);
    tensor::Workspace ws;
    // A slot the caller still holds must survive the callee's borrowing
    // of the same workspace (ridge_solve uses a Workspace::Scope).
    tensor::Matrix& held = ws.matrix(2, 2);
    held.fill(7.0);
    for (const std::size_t N : {12ul, 20ul, 12ul}) {
        const tensor::Matrix W = tensor::Matrix::random_normal(rng, 3, N);
        const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 40, N);
        const QueryDataset q = make_queries(W, U);
        const nn::SingleLayerNet plain = fit_least_squares_surrogate(q, 1e-6);
        const nn::SingleLayerNet pooled = fit_least_squares_surrogate(q, 1e-6, nullptr, &ws);
        EXPECT_EQ(plain.weights(), pooled.weights()) << "N=" << N;
    }
    EXPECT_EQ(held.rows(), 2u);
    EXPECT_EQ(held(1, 1), 7.0);
}

}  // namespace
}  // namespace xbarsec::attack
