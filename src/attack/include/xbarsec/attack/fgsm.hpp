// Fast gradient sign method (Goodfellow et al. 2015; the paper's Eq. 2).
//
// FGSM perturbs every input by ε·sign(∂L/∂u). It runs against a
// SingleLayerNet — in the black-box pipeline that net is the attacker's
// *surrogate*, and the resulting adversarial examples are transferred to
// the oracle (Figure 5). fgsm_attack_batch is the attack every caller
// runs; fgsm_perturbation states Eq. 2 for one sample and is the
// reference the batch is tested against.
#pragma once

#include <vector>

#include "xbarsec/attack/perturbation.hpp"
#include "xbarsec/nn/network.hpp"

namespace xbarsec::attack {

/// Eq. 2: r = ε · sgn(∇_u L). `target` is the ground-truth one-hot (the
/// attack is untargeted: it ascends the loss).
tensor::Vector fgsm_perturbation(const nn::SingleLayerNet& net, const tensor::Vector& u,
                                 const tensor::Vector& target, double epsilon);

/// Applies FGSM to every row of X (labels give the one-hot targets) and
/// returns the perturbed batch under `budget`.
tensor::Matrix fgsm_attack_batch(const nn::SingleLayerNet& net, const tensor::Matrix& X,
                                 const std::vector<int>& labels, std::size_t num_classes,
                                 double epsilon, const PerturbationBudget& budget = {});

}  // namespace xbarsec::attack
