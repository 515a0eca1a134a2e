// Perturbation budget and fast-gradient attack tests (Eq. 2).
#include <gtest/gtest.h>

#include <cmath>

#include "xbarsec/attack/fgsm.hpp"
#include "xbarsec/attack/perturbation.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::attack {
namespace {

nn::SingleLayerNet make_net(Rng& rng, std::size_t in = 10, std::size_t out = 4) {
    return nn::SingleLayerNet(rng, in, out, nn::Activation::Softmax,
                              nn::Loss::CategoricalCrossentropy);
}

TEST(Fgsm, PerturbationIsSignedEpsilon) {
    Rng rng(1);
    const nn::SingleLayerNet net = make_net(rng);
    const tensor::Vector u = tensor::Vector::random_uniform(rng, 10);
    tensor::Vector t(4, 0.0);
    t[0] = 1.0;
    const tensor::Vector r = fgsm_perturbation(net, u, t, 0.25);
    const tensor::Vector g = net.input_gradient(u, t);
    for (std::size_t j = 0; j < r.size(); ++j) {
        if (g[j] != 0.0) {
            EXPECT_DOUBLE_EQ(std::abs(r[j]), 0.25);
            EXPECT_EQ(r[j] > 0.0, g[j] > 0.0);
        } else {
            EXPECT_DOUBLE_EQ(r[j], 0.0);
        }
    }
}

TEST(Fgsm, IncreasesTheLoss) {
    // The definitional property: one FGSM step ascends the loss.
    Rng rng(2);
    const nn::SingleLayerNet net = make_net(rng, 20, 5);
    int increased = 0;
    for (int trial = 0; trial < 20; ++trial) {
        const tensor::Vector u = tensor::Vector::random_uniform(rng, 20);
        tensor::Vector t(5, 0.0);
        t[static_cast<std::size_t>(rng.below(5))] = 1.0;
        const tensor::Vector r = fgsm_perturbation(net, u, t, 0.05);
        tensor::Vector adv = u;
        adv += r;
        if (net.loss(adv, t) > net.loss(u, t)) ++increased;
    }
    EXPECT_GE(increased, 19);  // tiny steps can stall exactly at optima
}

TEST(Fgsm, ZeroEpsilonIsIdentity) {
    Rng rng(3);
    const nn::SingleLayerNet net = make_net(rng);
    const tensor::Vector u = tensor::Vector::random_uniform(rng, 10);
    tensor::Vector t(4, 0.0);
    t[1] = 1.0;
    const tensor::Vector r = fgsm_perturbation(net, u, t, 0.0);
    EXPECT_DOUBLE_EQ(tensor::norm_inf(r), 0.0);
}

TEST(FgsmBatch, MatchesPerSampleAttack) {
    Rng rng(5);
    const nn::SingleLayerNet net = make_net(rng, 8, 3);
    const tensor::Matrix X = tensor::Matrix::random_uniform(rng, 6, 8);
    const std::vector<int> labels{0, 1, 2, 0, 1, 2};
    const tensor::Matrix adv = fgsm_attack_batch(net, X, labels, 3, 0.1);
    for (std::size_t i = 0; i < X.rows(); ++i) {
        tensor::Vector t(3, 0.0);
        t[static_cast<std::size_t>(labels[i])] = 1.0;
        const tensor::Vector r = fgsm_perturbation(net, X.row(i), t, 0.1);
        for (std::size_t j = 0; j < 8; ++j) EXPECT_NEAR(adv(i, j), X(i, j) + r[j], 1e-12);
    }
}

TEST(FgsmBatch, RespectsBoxBudget) {
    Rng rng(6);
    const nn::SingleLayerNet net = make_net(rng, 5, 2);
    const tensor::Matrix X = tensor::Matrix::random_uniform(rng, 4, 5);
    PerturbationBudget budget;
    budget.clip_to_box = true;
    const tensor::Matrix adv = fgsm_attack_batch(net, X, {0, 1, 0, 1}, 2, 0.5, budget);
    for (std::size_t i = 0; i < adv.rows(); ++i)
        for (std::size_t j = 0; j < adv.cols(); ++j) {
            EXPECT_GE(adv(i, j), 0.0);
            EXPECT_LE(adv(i, j), 1.0);
        }
}

/// Inputs on a 1/8 grid, so x ± ε is exact for the steps below.
tensor::Matrix dyadic_inputs(std::size_t rows, std::size_t cols) {
    tensor::Matrix X(rows, cols);
    for (std::size_t k = 0; k < X.size(); ++k) X.data()[k] = static_cast<double>(k % 8) / 8.0;
    return X;
}

TEST(FgsmBatch, LinfBudgetCapsTheStep) {
    Rng rng(8);
    const nn::SingleLayerNet net = make_net(rng, 6, 3);
    const tensor::Matrix X = dyadic_inputs(5, 6);
    const std::vector<int> labels{0, 1, 2, 0, 1};
    PerturbationBudget capped;
    capped.linf = 0.1;
    EXPECT_EQ(fgsm_attack_batch(net, X, labels, 3, 0.5, capped),
              fgsm_attack_batch(net, X, labels, 3, 0.1));
    // linf = 0 is unconstrained: every pixel takes the full ε = 0.5 step.
    PerturbationBudget unconstrained;
    unconstrained.linf = 0.0;
    const tensor::Matrix adv = fgsm_attack_batch(net, X, labels, 3, 0.5, unconstrained);
    for (std::size_t i = 0; i < X.rows(); ++i)
        for (std::size_t j = 0; j < X.cols(); ++j) EXPECT_EQ(std::abs(adv(i, j) - X(i, j)), 0.5);
}

TEST(FgsmBatch, DefaultBudgetIsUnclamped) {
    // The paper's Figure-4 sweep runs strengths up to 10 on [0, 1] images
    // with no clamp.
    Rng rng(9);
    const nn::SingleLayerNet net = make_net(rng, 6, 3);
    const tensor::Matrix X = dyadic_inputs(4, 6);
    const tensor::Matrix adv = fgsm_attack_batch(net, X, {2, 1, 0, 2}, 3, 10.0);
    for (std::size_t i = 0; i < X.rows(); ++i)
        for (std::size_t j = 0; j < X.cols(); ++j) EXPECT_EQ(std::abs(adv(i, j) - X(i, j)), 10.0);
}

TEST(FgsmBatch, ValidatesShapes) {
    Rng rng(7);
    const nn::SingleLayerNet net = make_net(rng, 5, 2);
    const tensor::Matrix X = tensor::Matrix::random_uniform(rng, 2, 5);
    EXPECT_THROW(fgsm_attack_batch(net, X, {0}, 2, 0.1), ContractViolation);
    EXPECT_THROW(fgsm_attack_batch(net, X, {0, 5}, 2, 0.1), ContractViolation);
    EXPECT_THROW(fgsm_perturbation(net, tensor::Vector(5, 0.1), tensor::Vector(2, 0.0), -1.0),
                 ContractViolation);
}

}  // namespace
}  // namespace xbarsec::attack
