// Surrogate-training tests (Eq. 9): the power term's math, its pull on
// the surrogate's column 1-norms, and the closed-form Q ≥ N baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "xbarsec/attack/surrogate.hpp"
#include "xbarsec/common/error.hpp"
#include "xbarsec/stats/correlation.hpp"
#include "xbarsec/tensor/gemm.hpp"
#include "xbarsec/tensor/ops.hpp"

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
    Rng rng(31);
    tensor::Matrix W = tensor::Matrix::random_normal(rng, 10, 784);
    // Zero weights of both signs contribute nothing; keep some of each.
    for (std::size_t j = 0; j < 784; j += 13) W(j % 10, j) = 0.0;
    for (std::size_t j = 5; j < 784; j += 17) W(j % 10, j) = -0.0;
    tensor::Vector q = tensor::Vector::random_normal(rng, 784);
    for (std::size_t j = 0; j < 784; j += 29) q[j] = 0.0;
    const tensor::Matrix g0 = tensor::Matrix::random_normal(rng, 10, 784);
    for (const double lambda : {0.002, 0.3, 1.0}) {
        tensor::Matrix expected = g0;
        branchy_sign_gradient(W, q, lambda, expected);
        tensor::Matrix got = g0;
        add_power_sign_gradient(W, q.span(), lambda, got);
        ASSERT_EQ(0, std::memcmp(got.data(), expected.data(), got.size() * sizeof(double)))
            << "lambda " << lambda;
    }
    tensor::Matrix wrong(3, 3);
    EXPECT_THROW(add_power_sign_gradient(W, q.span(), 0.1, wrong), ContractViolation);
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
