#include "xbarsec/xbar/xbar_network.hpp"

#include <algorithm>

#include "xbarsec/common/arena.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::xbar {

namespace {

Crossbar build_crossbar(const nn::SingleLayerNet& net, const DeviceSpec& spec,
                        const NonIdealityConfig& nonideal, const MappingOptions& mapping) {
    XS_EXPECTS_MSG(!net.layer().has_bias(),
                   "a passive crossbar computes a pure matrix-vector product; "
                   "train the network without a bias to deploy it");
    return Crossbar(map_weights(net.weights(), spec, mapping), nonideal);
}

}  // namespace

CrossbarNetwork::CrossbarNetwork(const nn::SingleLayerNet& net, const DeviceSpec& spec,
                                 const NonIdealityConfig& nonideal, const MappingOptions& mapping)
    : crossbar_(build_crossbar(net, spec, nonideal, mapping)),
      activation_(net.activation()),
      loss_(net.loss_kind()) {}

tensor::Vector CrossbarNetwork::predict(const tensor::Vector& u) const {
    return nn::apply_activation(activation_, crossbar_.mvm(u));
}

int CrossbarNetwork::classify(std::span<const double> u) const {
    // predict(u) in thread-arena scratch: the same mvm, activation and
    // first-maximum argmax, so labels equal argmax(predict(u)) exactly.
    Arena& arena = thread_arena();
    const Arena::Scope scratch(arena);
    const std::span<double> s = arena.alloc<double>(outputs());
    crossbar_.mvm_into(u, s);
    nn::apply_activation_inplace(activation_, s);
    return static_cast<int>(std::max_element(s.begin(), s.end()) - s.begin());
}

tensor::Matrix CrossbarNetwork::predict_batch(const tensor::Matrix& U, ThreadPool* pool) const {
    return nn::apply_activation_rows(activation_, crossbar_.mvm_batch(U, pool));
}

std::vector<int> CrossbarNetwork::classify_batch(const tensor::Matrix& U, ThreadPool* pool) const {
    return tensor::argmax_rows(predict_batch(U, pool));
}

nn::SingleLayerNet CrossbarNetwork::effective_network() const {
    nn::DenseLayer layer(outputs(), inputs(), /*with_bias=*/false);
    layer.weights() = crossbar_.effective_weights();
    return nn::SingleLayerNet(std::move(layer), activation_, loss_);
}

double CrossbarNetwork::accuracy(const data::Dataset& dataset) const {
    XS_EXPECTS(dataset.size() > 0);
    XS_EXPECTS(dataset.input_dim() == inputs());
    const std::vector<int> labels = classify_batch(dataset.inputs());
    std::size_t hits = 0;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
        if (labels[i] == dataset.label(i)) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(dataset.size());
}

}  // namespace xbarsec::xbar
