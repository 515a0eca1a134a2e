// Crossbar-backed single-layer neural network.
//
// Wraps a trained SingleLayerNet in a simulated crossbar: inference runs
// through the analog array (Eq. 3 → normalise → activation, i.e. Eq. 4)
// and every inference also exposes the power side channel (Eq. 5). This
// is the "victim hardware" object that core::CrossbarOracle wraps for the
// attacker-facing query interface.
#pragma once

#include <span>
#include <vector>

#include "xbarsec/data/dataset.hpp"
#include "xbarsec/nn/network.hpp"
#include "xbarsec/xbar/crossbar.hpp"

namespace xbarsec::xbar {

/// A single-layer network deployed onto a simulated NVM crossbar.
class CrossbarNetwork {
public:
    /// Programs `net`'s weights onto a crossbar with the given device
    /// spec and non-idealities. The activation/loss metadata of `net` is
    /// retained for inference and attack computations.
    CrossbarNetwork(const nn::SingleLayerNet& net, const DeviceSpec& spec,
                    const NonIdealityConfig& nonideal = {}, const MappingOptions& mapping = {});

    std::size_t inputs() const { return crossbar_.cols(); }
    std::size_t outputs() const { return crossbar_.rows(); }
    nn::Activation activation() const { return activation_; }
    nn::Loss loss_kind() const { return loss_; }

    const Crossbar& crossbar() const { return crossbar_; }

    /// Analog inference: ŷ = f(i_s / scale) (Eq. 3 + Eq. 4).
    tensor::Vector predict(const tensor::Vector& u) const;

    /// Argmax class of predict(u), computed without heap allocation (the
    /// per-query detector screen runs this for every row it scores).
    int classify(std::span<const double> u) const;

    /// Batched analog inference: row r is predict(U.row(r)), computed
    /// through the crossbar's dense GEMM fast path.
    tensor::Matrix predict_batch(const tensor::Matrix& U, ThreadPool* pool = nullptr) const;

    /// Batched classification: out[r] = classify(U.row(r)).
    std::vector<int> classify_batch(const tensor::Matrix& U, ThreadPool* pool = nullptr) const;

    /// The power side channel for input u (Eq. 5).
    double total_current(const tensor::Vector& u) const { return crossbar_.total_current(u); }

    /// Batched power side channel: out[r] = total_current(U.row(r)).
    tensor::Vector total_current_batch(const tensor::Matrix& U, ThreadPool* pool = nullptr) const {
        return crossbar_.total_current_batch(U, pool);
    }

    /// Static power for input u.
    double static_power(const tensor::Vector& u) const { return crossbar_.static_power(u); }

    /// The software network this crossbar was programmed from, with the
    /// *effective* (noisy/quantised/faulted) weights it actually realises.
    nn::SingleLayerNet effective_network() const;

    /// Classification accuracy through the analog path.
    double accuracy(const data::Dataset& dataset) const;

private:
    Crossbar crossbar_;
    nn::Activation activation_;
    nn::Loss loss_;
};

}  // namespace xbarsec::xbar
