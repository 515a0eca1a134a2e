#include "xbarsec/attack/evaluate.hpp"

namespace xbarsec::attack {

double oracle_accuracy(core::Oracle& oracle, const tensor::Matrix& X,
                       const std::vector<int>& labels) {
    XS_EXPECTS(X.rows() == labels.size());
    XS_EXPECTS(X.rows() > 0);
    const std::vector<int> predicted = oracle.query_labels(X);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (predicted[i] == labels[i]) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(labels.size());
}

double oracle_accuracy(core::Oracle& oracle, const data::Dataset& dataset) {
    return oracle_accuracy(oracle, dataset.inputs(), dataset.labels());
}

tensor::Matrix craft_single_pixel_batch(SinglePixelMethod method, const data::Dataset& test,
                                        double strength, const tensor::Vector* power_l1,
                                        const nn::SingleLayerNet* white_box, Rng& rng) {
    XS_EXPECTS(test.size() > 0);
    tensor::Matrix adv(test.size(), test.input_dim());
    for (std::size_t i = 0; i < test.size(); ++i) {
        adv.set_row(i, attack_single_pixel(method, test.input(i), test.target(i), strength,
                                           power_l1, white_box, rng));
    }
    return adv;
}

}  // namespace xbarsec::attack
