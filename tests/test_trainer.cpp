// Optimizer and trainer tests: update math, convergence, and the
// headline "single layer reaches ≈90% on the MNIST-like data" check.
#include <gtest/gtest.h>

#include "xbarsec/data/synthetic_mnist.hpp"
#include "xbarsec/nn/metrics.hpp"
#include "xbarsec/nn/optimizer.hpp"
#include "xbarsec/nn/trainer.hpp"
#include "xbarsec/tensor/gemm.hpp"

namespace xbarsec::nn {
namespace {

TEST(Sgd, PlainStepMath) {
    Sgd opt(0.1);
    const auto slot = opt.register_parameter(2);
    std::vector<double> param{1.0, -1.0};
    const std::vector<double> grad{2.0, -4.0};
    opt.step(slot, param, grad);
    EXPECT_DOUBLE_EQ(param[0], 0.8);
    EXPECT_DOUBLE_EQ(param[1], -0.6);
}

TEST(Sgd, MomentumAccumulates) {
    Sgd opt(0.1, 0.9);
    const auto slot = opt.register_parameter(1);
    std::vector<double> param{0.0};
    const std::vector<double> grad{1.0};
    opt.step(slot, param, grad);  // v = -0.1, p = -0.1
    EXPECT_NEAR(param[0], -0.1, 1e-12);
    opt.step(slot, param, grad);  // v = -0.19, p = -0.29
    EXPECT_NEAR(param[0], -0.29, 1e-12);
}

TEST(Sgd, ValidationAndLearningRateUpdates) {
    EXPECT_THROW(Sgd(0.0), ContractViolation);
    EXPECT_THROW(Sgd(0.1, 1.0), ContractViolation);
    Sgd opt(0.1);
    EXPECT_THROW(opt.set_learning_rate(-0.1), ContractViolation);
    opt.set_learning_rate(0.2);
    EXPECT_DOUBLE_EQ(opt.learning_rate(), 0.2);
}

TEST(Adam, FirstStepIsLearningRateSized) {
    Adam opt(0.001);
    const auto slot = opt.register_parameter(1);
    std::vector<double> param{0.0};
    const std::vector<double> grad{123.0};
    opt.step(slot, param, grad);
    // Bias-corrected first step ≈ lr·sign(grad) regardless of magnitude.
    EXPECT_NEAR(param[0], -0.001, 1e-6);
}

TEST(Adam, ConvergesOnQuadratic) {
    // min (x-3)²: gradient 2(x-3).
    Adam opt(0.1);
    const auto slot = opt.register_parameter(1);
    std::vector<double> x{0.0};
    for (int i = 0; i < 500; ++i) {
        const std::vector<double> grad{2.0 * (x[0] - 3.0)};
        opt.step(slot, x, grad);
    }
    EXPECT_NEAR(x[0], 3.0, 1e-2);
}

TEST(Optimizer, FactoryBuildsBothKinds) {
    EXPECT_NE(make_optimizer(OptimizerKind::Sgd, 0.1, 0.0), nullptr);
    EXPECT_NE(make_optimizer(OptimizerKind::Adam, 0.001, 0.0), nullptr);
}

data::Dataset linearly_separable(std::size_t n, Rng& rng) {
    // 3 classes in 2-D on distinct ray directions, so they are separable
    // by a linear score function *through the origin* (the nets carry no
    // bias, matching the crossbar constraint).
    tensor::Matrix inputs(n, 2);
    std::vector<int> labels(n);
    const double cx[3] = {1.0, -0.2, -0.8};
    const double cy[3] = {0.1, 1.0, -0.8};
    for (std::size_t i = 0; i < n; ++i) {
        const int c = static_cast<int>(i % 3);
        inputs(i, 0) = cx[c] + rng.normal(0.0, 0.08);
        inputs(i, 1) = cy[c] + rng.normal(0.0, 0.08);
        labels[i] = c;
    }
    return data::Dataset(std::move(inputs), std::move(labels), 3, data::ImageShape{1, 2, 1});
}

TEST(Trainer, LossDecreasesAndSeparableProblemIsLearned) {
    Rng rng(1);
    const data::Dataset train_set = linearly_separable(300, rng);
    SingleLayerNet net(rng, 2, 3, Activation::Softmax, Loss::CategoricalCrossentropy);
    TrainConfig config;
    config.epochs = 40;
    config.batch_size = 16;
    config.learning_rate = 0.5;
    config.momentum = 0.9;
    const TrainHistory h = train(net, train_set, config);
    ASSERT_EQ(h.epoch_loss.size(), 40u);
    EXPECT_LT(h.epoch_loss.back(), 0.5 * h.epoch_loss.front());
    EXPECT_GT(accuracy(net, train_set), 0.95);
}

TEST(Trainer, LinearMseConfigurationAlsoLearns) {
    Rng rng(2);
    const data::Dataset train_set = linearly_separable(300, rng);
    SingleLayerNet net(rng, 2, 3, Activation::Linear, Loss::Mse);
    TrainConfig config;
    config.epochs = 60;
    config.batch_size = 16;
    config.learning_rate = 0.5;
    config.momentum = 0.9;
    train(net, train_set, config);
    EXPECT_GT(accuracy(net, train_set), 0.9);
}

TEST(Trainer, RegressionFitsLinearMap) {
    Rng rng(3);
    const tensor::Matrix W_true = tensor::Matrix::random_normal(rng, 3, 5);
    const tensor::Matrix X = tensor::Matrix::random_uniform(rng, 200, 5);
    tensor::Matrix Y(200, 3, 0.0);
    tensor::gemm(1.0, X, tensor::Op::None, W_true, tensor::Op::Transpose, 0.0, Y);

    SingleLayerNet net(rng, 5, 3, Activation::Linear, Loss::Mse);
    TrainConfig config;
    config.epochs = 150;
    config.batch_size = 20;
    config.learning_rate = 0.3;
    config.momentum = 0.9;
    const TrainHistory h = train_regression(net, X, Y, config);
    EXPECT_LT(h.final_loss(), 1e-3);
    const double mean_loss =
        loss_value_batch_sum(Loss::Mse, net.predict_batch(X), Y) / static_cast<double>(X.rows());
    EXPECT_LT(mean_loss, 1e-3);
}

TEST(Trainer, EpochLossHistoryIsMonotoneOnEasyProblem) {
    Rng rng(4);
    const data::Dataset train_set = linearly_separable(150, rng);
    SingleLayerNet net(rng, 2, 3, Activation::Softmax, Loss::CategoricalCrossentropy);
    TrainConfig config;
    config.epochs = 10;
    config.learning_rate = 0.3;
    const TrainHistory h = xbarsec::nn::train(net, train_set, config);
    // Not strictly monotone in general, but the first epoch must beat the
    // last by a wide margin on this trivial problem.
    EXPECT_LT(h.epoch_loss.back(), h.epoch_loss.front());
}

TEST(Trainer, ValidatesConfiguration) {
    Rng rng(5);
    const data::Dataset train_set = linearly_separable(30, rng);
    SingleLayerNet net(rng, 2, 3, Activation::Softmax, Loss::CategoricalCrossentropy);
    TrainConfig config;
    config.epochs = 0;
    EXPECT_THROW(xbarsec::nn::train(net, train_set, config), ContractViolation);
}

TEST(Trainer, SyntheticMnistReachesPaperAccuracyBand) {
    // The headline calibration check: a single softmax layer on the
    // synthetic MNIST stand-in must land in the paper's ~0.85+ band.
    data::SyntheticMnistConfig dc;
    dc.train_count = 2000;
    dc.test_count = 500;
    const data::DataSplit split = data::make_synthetic_mnist(dc);
    Rng rng(6);
    SingleLayerNet net(rng, 784, 10, Activation::Softmax, Loss::CategoricalCrossentropy);
    TrainConfig config;
    config.epochs = 15;
    config.batch_size = 32;
    config.learning_rate = 0.1;
    config.momentum = 0.9;
    config.final_lr_fraction = 0.1;
    train(net, split.train, config);
    const double acc = accuracy(net, split.test);
    EXPECT_GT(acc, 0.8) << "synthetic MNIST single-layer accuracy out of band";
}

TEST(Metrics, AccuracyOnExplicitMatrix) {
    SingleLayerNet net(DenseLayer(2, 2), Activation::Linear, Loss::Mse);
    net.weights() = tensor::Matrix{{1, 0}, {0, 1}};
    tensor::Matrix X{{3, 1}, {1, 3}};
    EXPECT_DOUBLE_EQ(accuracy(net, X, {0, 1}), 1.0);
    EXPECT_DOUBLE_EQ(accuracy(net, X, {1, 0}), 0.0);
}

}  // namespace
}  // namespace xbarsec::nn
