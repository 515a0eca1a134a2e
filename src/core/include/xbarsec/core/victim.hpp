// Victim construction: train the paper's single-layer oracle networks and
// deploy them on the simulated crossbar.
#pragma once

#include <cstdint>
#include <string>

#include "xbarsec/core/oracle.hpp"
#include "xbarsec/data/dataset.hpp"
#include "xbarsec/nn/network.hpp"
#include "xbarsec/nn/trainer.hpp"
#include "xbarsec/xbar/xbar_network.hpp"

namespace xbarsec::core {

/// One of the paper's two output configurations.
struct OutputConfig {
    nn::Activation activation = nn::Activation::Softmax;
    nn::Loss loss = nn::Loss::CategoricalCrossentropy;

    static OutputConfig linear_mse() { return {nn::Activation::Linear, nn::Loss::Mse}; }
    static OutputConfig softmax_ce() {
        return {nn::Activation::Softmax, nn::Loss::CategoricalCrossentropy};
    }

    std::string name() const { return to_string(activation); }
};

/// Everything needed to train and deploy one victim.
struct VictimConfig {
    OutputConfig output;
    nn::TrainConfig train;
    xbar::DeviceSpec device;
    xbar::NonIdealityConfig nonideal;
    std::uint64_t init_seed = 11;

    /// When true, train_victim() replaces train.learning_rate with
    /// lr_numerator / E[‖u‖²] (estimated from the training inputs). The
    /// heavy-ball stability bound scales with 1/E[‖u‖²], so a fixed rate
    /// that converges on 784-dim MNIST diverges on 3072-dim CIFAR; this
    /// keeps both in the stable region.
    bool auto_lr = true;
    double lr_numerator = 5.0;

    /// Sensible defaults for the dataset scale of this repo (tuned so the
    /// synthetic MNIST victim lands near the paper's ~90% band).
    static VictimConfig defaults(OutputConfig output);
};

/// A trained victim and its headline metrics.
struct TrainedVictim {
    nn::SingleLayerNet net;
    double train_accuracy = 0.0;
    double test_accuracy = 0.0;
};

/// Trains the software network on the split.
TrainedVictim train_victim(const data::DataSplit& split, const VictimConfig& config);

/// Deploys a trained network on the crossbar and wraps it in an oracle.
CrossbarOracle deploy_victim(const nn::SingleLayerNet& net, const VictimConfig& config);

/// Deploys the same trained network onto `replicas` physically distinct
/// crossbars: identical programmed weights, but each replica derives its
/// own fault-placement/read-noise seed and write-noise seed via
/// xbar::replica_variation_seed, so every device carries a different
/// physical signature. Replica 0 is bit-identical to deploy_victim(net,
/// config). Front the returned oracles with an OracleService fleet
/// constructor to serve them behind one routing policy.
std::vector<CrossbarOracle> deploy_victim_fleet(const nn::SingleLayerNet& net,
                                                const VictimConfig& config, std::size_t replicas);

}  // namespace xbarsec::core
