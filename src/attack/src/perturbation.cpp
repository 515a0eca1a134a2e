#include "xbarsec/attack/perturbation.hpp"

#include "xbarsec/common/contracts.hpp"

namespace xbarsec::attack {

tensor::Matrix one_hot_targets(const std::vector<int>& labels, std::size_t num_classes) {
    tensor::Matrix T(labels.size(), num_classes, 0.0);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        XS_EXPECTS(labels[i] >= 0 && static_cast<std::size_t>(labels[i]) < num_classes);
        T(i, static_cast<std::size_t>(labels[i])) = 1.0;
    }
    return T;
}

}  // namespace xbarsec::attack
