// The perturbation budget and the one-hot targets shared by the gradient
// attacks.
#pragma once

#include <vector>

#include "xbarsec/tensor/matrix.hpp"
#include "xbarsec/tensor/vector.hpp"

namespace xbarsec::attack {

/// Constraint set R for adversarial perturbations (Eq. 1's feasible set).
struct PerturbationBudget {
    /// ℓ∞ cap on the perturbation (0 = unconstrained).
    double linf = 0.0;

    /// When true, the perturbed input is clamped back into [box_lo, box_hi].
    /// The paper's Figure-4 sweep does NOT clamp (attack strengths up to 10
    /// on [0,1] images), so this defaults off.
    bool clip_to_box = false;
    double box_lo = 0.0;
    double box_hi = 1.0;
};

/// One-hot target matrix from integer labels: row i has a 1 at labels[i].
/// Validates every label against num_classes. Shared by the batched
/// gradient attacks.
tensor::Matrix one_hot_targets(const std::vector<int>& labels, std::size_t num_classes);

}  // namespace xbarsec::attack
