// Activation and loss tests, including finite-difference checks on the
// fused pre-activation gradients.
#include <gtest/gtest.h>

#include <cmath>

#include "xbarsec/common/error.hpp"
#include "xbarsec/nn/activation.hpp"
#include "xbarsec/nn/loss.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::nn {
namespace {

TEST(Activation, SoftmaxIsADistribution) {
    const tensor::Vector s{1.0, 2.0, 3.0};
    const tensor::Vector y = softmax(s);
    EXPECT_NEAR(tensor::sum(y), 1.0, 1e-12);
    for (const double v : y) EXPECT_GT(v, 0.0);
    EXPECT_GT(y[2], y[1]);
    EXPECT_GT(y[1], y[0]);
}

TEST(Activation, SoftmaxShiftInvariance) {
    const tensor::Vector s{0.5, -1.0, 2.0};
    tensor::Vector shifted = s;
    for (auto& x : shifted) x += 1000.0;  // also exercises overflow safety
    const tensor::Vector a = softmax(s);
    const tensor::Vector b = softmax(shifted);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(Activation, ElementwiseValues) {
    const tensor::Vector s{-1.0, 0.0, 2.0};
    const tensor::Vector relu = apply_activation(Activation::Relu, s);
    EXPECT_DOUBLE_EQ(relu[0], 0.0);
    EXPECT_DOUBLE_EQ(relu[2], 2.0);
    const tensor::Vector sig = apply_activation(Activation::Sigmoid, s);
    EXPECT_NEAR(sig[1], 0.5, 1e-12);
    const tensor::Vector th = apply_activation(Activation::Tanh, s);
    EXPECT_NEAR(th[2], std::tanh(2.0), 1e-12);
    EXPECT_EQ(apply_activation(Activation::Linear, s), s);
}

TEST(Activation, DerivativesMatchFiniteDifferences) {
    const tensor::Vector s{-0.7, 0.3, 1.9};
    const double h = 1e-6;
    for (const Activation a : {Activation::Sigmoid, Activation::Relu, Activation::Tanh,
                               Activation::Linear}) {
        const tensor::Vector d = activation_derivative(a, s);
        for (std::size_t i = 0; i < s.size(); ++i) {
            tensor::Vector sp = s, sm = s;
            sp[i] += h;
            sm[i] -= h;
            const double fd = (apply_activation(a, sp)[i] - apply_activation(a, sm)[i]) / (2 * h);
            EXPECT_NEAR(d[i], fd, 1e-5) << to_string(a) << " at i=" << i;
        }
    }
}

TEST(Activation, SoftmaxDerivativeIsRejected) {
    EXPECT_THROW(activation_derivative(Activation::Softmax, tensor::Vector{1, 2}), ConfigError);
}

TEST(Activation, RowwiseMatchesPerRow) {
    Rng rng(1);
    const tensor::Matrix S = tensor::Matrix::random_normal(rng, 4, 3);
    const tensor::Matrix Y = apply_activation_rows(Activation::Softmax, S);
    for (std::size_t r = 0; r < S.rows(); ++r) {
        const tensor::Vector expect = softmax(S.row(r));
        for (std::size_t c = 0; c < S.cols(); ++c) EXPECT_NEAR(Y(r, c), expect[c], 1e-12);
    }
}

TEST(Loss, MseKnownValue) {
    // Mean over outputs: ((1-0)² + (0-2)²)/2 = 2.5.
    EXPECT_DOUBLE_EQ(loss_value(Loss::Mse, tensor::Vector{1, 0}, tensor::Vector{0, 2}), 2.5);
}

TEST(Loss, CrossentropyKnownValue) {
    const tensor::Vector y{0.7, 0.2, 0.1};
    const tensor::Vector t{0, 1, 0};
    EXPECT_NEAR(loss_value(Loss::CategoricalCrossentropy, y, t), -std::log(0.2), 1e-12);
}

TEST(Loss, CrossentropyClampsZeroPrediction) {
    const tensor::Vector y{1.0, 0.0};
    const tensor::Vector t{0.0, 1.0};
    const double l = loss_value(Loss::CategoricalCrossentropy, y, t);
    EXPECT_TRUE(std::isfinite(l));
    EXPECT_GT(l, 20.0);  // -log(eps) is large but finite
}

TEST(Loss, PairingSupport) {
    EXPECT_TRUE(pairing_supported(Activation::Linear, Loss::Mse));
    EXPECT_TRUE(pairing_supported(Activation::Softmax, Loss::CategoricalCrossentropy));
    EXPECT_FALSE(pairing_supported(Activation::Softmax, Loss::Mse));
    EXPECT_FALSE(pairing_supported(Activation::Linear, Loss::CategoricalCrossentropy));
    EXPECT_THROW(
        loss_gradient_preactivation(Activation::Softmax, Loss::Mse, tensor::Vector{1},
                                    tensor::Vector{1}),
        ConfigError);
}

// Finite-difference validation of the fused gradient for both of the
// paper's pairings plus sigmoid+MSE.
struct GradCase {
    Activation activation;
    Loss loss;
};

class PreactivationGradient : public ::testing::TestWithParam<GradCase> {};

TEST_P(PreactivationGradient, MatchesFiniteDifferences) {
    const auto [activation, loss] = GetParam();
    Rng rng(17);
    const tensor::Vector s = tensor::Vector::random_normal(rng, 5);
    tensor::Vector t(5, 0.0);
    t[2] = 1.0;  // one-hot target
    const tensor::Vector grad = loss_gradient_preactivation(activation, loss, s, t);
    const double h = 1e-6;
    for (std::size_t i = 0; i < s.size(); ++i) {
        tensor::Vector sp = s, sm = s;
        sp[i] += h;
        sm[i] -= h;
        const double lp = loss_value(loss, apply_activation(activation, sp), t);
        const double lm = loss_value(loss, apply_activation(activation, sm), t);
        EXPECT_NEAR(grad[i], (lp - lm) / (2 * h), 1e-5)
            << to_string(activation) << "+" << to_string(loss) << " at i=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    PaperPairings, PreactivationGradient,
    ::testing::Values(GradCase{Activation::Linear, Loss::Mse},
                      GradCase{Activation::Softmax, Loss::CategoricalCrossentropy},
                      GradCase{Activation::Sigmoid, Loss::Mse},
                      GradCase{Activation::Tanh, Loss::Mse}));

}  // namespace
}  // namespace xbarsec::nn
