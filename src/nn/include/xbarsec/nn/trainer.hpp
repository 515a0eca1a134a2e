// Minibatch training for SingleLayerNet (classification and regression).
//
// The regression entry point (arbitrary real-valued target matrix) is what
// the Section-IV surrogates use when fitting raw oracle outputs; the
// classification entry point trains the oracles themselves.
#pragma once

#include <cstdint>
#include <vector>

#include "xbarsec/data/dataset.hpp"
#include "xbarsec/nn/network.hpp"
#include "xbarsec/nn/optimizer.hpp"

namespace xbarsec::nn {

/// Hyperparameters for train()/train_regression().
struct TrainConfig {
    std::size_t epochs = 25;
    std::size_t batch_size = 32;
    double learning_rate = 0.05;
    double momentum = 0.9;
    OptimizerKind optimizer = OptimizerKind::Sgd;
    std::uint64_t shuffle_seed = 7;
    /// When > 0, learning rate decays geometrically to
    /// learning_rate · final_lr_fraction across epochs (Sgd only).
    double final_lr_fraction = 0.0;
    bool verbose = false;
    /// Draw per-minibatch temporaries (gathers, pre-activations, deltas)
    /// from a reused Workspace arena instead of allocating fresh each
    /// iteration. Purely a performance toggle: the trained weights are
    /// bit-identical either way (tested by test_arena.cpp).
    bool arena = true;
};

/// Per-epoch trace returned by the trainers.
struct TrainHistory {
    std::vector<double> epoch_loss;  ///< mean per-sample training loss

    double final_loss() const { return epoch_loss.empty() ? 0.0 : epoch_loss.back(); }
};

/// Trains on a labeled dataset against its one-hot targets.
TrainHistory train(SingleLayerNet& net, const data::Dataset& dataset, const TrainConfig& config);

/// Trains against an arbitrary real-valued target matrix (rows aligned
/// with X's rows). Used for surrogate/regression fitting.
TrainHistory train_regression(SingleLayerNet& net, const tensor::Matrix& X,
                              const tensor::Matrix& Y, const TrainConfig& config);

/// Batch version of loss_gradient_preactivation: row r of the result is
/// δ for sample r. Exposed for the surrogate trainer (attack module),
/// which extends it with the power-loss term.
tensor::Matrix batch_preactivation_delta(Activation activation, Loss loss,
                                         const tensor::Matrix& S, const tensor::Matrix& T);

}  // namespace xbarsec::nn
