#include "xbarsec/attack/fgsm.hpp"

#include <algorithm>

#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::attack {

tensor::Vector fgsm_perturbation(const nn::SingleLayerNet& net, const tensor::Vector& u,
                                 const tensor::Vector& target, double epsilon) {
    XS_EXPECTS(epsilon >= 0.0);
    tensor::Vector r = tensor::sign(net.input_gradient(u, target));
    r *= epsilon;
    return r;
}

tensor::Matrix fgsm_attack_batch(const nn::SingleLayerNet& net, const tensor::Matrix& X,
                                 const std::vector<int>& labels, std::size_t num_classes,
                                 double epsilon, const PerturbationBudget& budget) {
    XS_EXPECTS(epsilon >= 0.0);
    XS_EXPECTS(X.rows() == labels.size());
    XS_EXPECTS(num_classes == net.outputs());
    XS_EXPECTS(budget.linf >= 0.0);
    if (budget.clip_to_box) XS_EXPECTS(budget.box_lo <= budget.box_hi);

    // The whole test set's gradients in two GEMMs, then one elementwise
    // pass applying Eq. 2 and the budget: on every row, fgsm_perturbation
    // with ε capped at the ℓ∞ budget, added to the input, then clamped
    // into the box when the budget asks for it.
    const tensor::Matrix T = one_hot_targets(labels, num_classes);
    const tensor::Matrix G = net.input_gradient_batch(X, T);

    tensor::Matrix out(X.rows(), X.cols());
    const double* __restrict x = X.data();
    const double* __restrict g = G.data();
    double* __restrict o = out.data();
    const double eps = budget.linf > 0.0 ? std::min(epsilon, budget.linf) : epsilon;
    for (std::size_t i = 0; i < X.size(); ++i) {
        const double r = g[i] > 0.0 ? eps : (g[i] < 0.0 ? -eps : 0.0);
        double a = x[i] + r;
        if (budget.clip_to_box) a = std::clamp(a, budget.box_lo, budget.box_hi);
        o[i] = a;
    }
    return out;
}

}  // namespace xbarsec::attack
