#include "xbarsec/xbar/multilayer.hpp"

#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::xbar {

MultiLayerCrossbarNetwork::MultiLayerCrossbarNetwork(const nn::Mlp& mlp, const DeviceSpec& spec,
                                                     const NonIdealityConfig& nonideal)
    : config_(mlp.config()) {
    XS_EXPECTS(mlp.depth() >= 1);
    XS_EXPECTS_MSG(!config_.with_bias,
                   "passive crossbars compute pure matrix-vector products; "
                   "build the Mlp with with_bias = false to deploy it");
    layers_.reserve(mlp.depth());
    for (std::size_t l = 0; l < mlp.depth(); ++l) {
        NonIdealityConfig per_layer = nonideal;
        per_layer.seed = nonideal.seed + 0x9E37 * l;  // independent fault/noise streams
        layers_.emplace_back(map_weights(mlp.layers()[l].weights(), spec), per_layer);
    }
}

const Crossbar& MultiLayerCrossbarNetwork::layer(std::size_t l) const {
    XS_EXPECTS(l < layers_.size());
    return layers_[l];
}

tensor::Vector MultiLayerCrossbarNetwork::input_to_layer(std::size_t l,
                                                         const tensor::Vector& u) const {
    XS_EXPECTS(l < layers_.size());
    XS_EXPECTS(u.size() == inputs());
    tensor::Vector x = u;
    for (std::size_t k = 0; k < l; ++k) {
        x = nn::apply_activation(config_.hidden_activation, layers_[k].mvm(x));
    }
    return x;
}

tensor::Vector MultiLayerCrossbarNetwork::predict(const tensor::Vector& u) const {
    tensor::Vector x = input_to_layer(layers_.size() - 1, u);
    return nn::apply_activation(config_.output_activation, layers_.back().mvm(x));
}

int MultiLayerCrossbarNetwork::classify(const tensor::Vector& u) const {
    return static_cast<int>(tensor::argmax(predict(u)));
}

double MultiLayerCrossbarNetwork::layer_total_current(std::size_t l,
                                                      const tensor::Vector& u) const {
    // input_to_layer checks l, so it must run before layers_[l] is read.
    const tensor::Vector x = input_to_layer(l, u);
    return layers_[l].total_current(x);
}

double MultiLayerCrossbarNetwork::accuracy(const data::Dataset& dataset) const {
    XS_EXPECTS(dataset.size() > 0);
    XS_EXPECTS(dataset.input_dim() == inputs());
    std::size_t hits = 0;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
        if (classify(dataset.input(i)) == dataset.label(i)) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(dataset.size());
}

}  // namespace xbarsec::xbar
