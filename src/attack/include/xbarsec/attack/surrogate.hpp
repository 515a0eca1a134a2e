// Power-aware surrogate training (Section IV, Eq. 9).
//
// The attacker queries the oracle with Q inputs, recording the outputs
// (raw vectors or one-hot labels) and the power side channel, then fits a
// linear single-layer surrogate with the joint loss
//     L = L_out + λ·L_power                                   (Eq. 9)
// where L_out is the output MSE and L_power the MSE between the oracle's
// power reading and the surrogate's own implied power
//     p̂(u) = Σ_j u_j·‖Ŵ[:,j]‖₁
// (the total current its weights would draw on an ideal one-sided
// crossbar, in weight units). The power term is differentiable a.e. with
// ∂p̂/∂ŵ_ij = u_j·sign(ŵ_ij).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/nn/network.hpp"
#include "xbarsec/nn/trainer.hpp"
#include "xbarsec/tensor/workspace.hpp"

namespace xbarsec::attack {

/// What the attacker recorded from Q oracle queries.
struct QueryDataset {
    tensor::Matrix inputs;   ///< Q × N query inputs
    tensor::Matrix outputs;  ///< Q × M oracle outputs (raw, or one-hot labels)
    tensor::Vector power;    ///< Q power readings in weight units

    std::size_t size() const { return inputs.rows(); }
};

/// Hyperparameters of the surrogate fit.
struct SurrogateConfig {
    /// λ in Eq. 9. 0 disables the power term (the paper's baseline).
    double power_loss_weight = 0.0;

    /// Optimisation settings (epochs, batch size, learning rate, ...).
    nn::TrainConfig train;

    /// Glorot-init seed for the surrogate weights.
    std::uint64_t init_seed = 5;
};

/// Result of a surrogate fit with its per-epoch loss decomposition.
struct SurrogateTrainResult {
    nn::SingleLayerNet surrogate;
    std::vector<double> epoch_output_loss;
    std::vector<double> epoch_power_loss;  ///< unweighted (multiply by λ for Eq. 9's term)
};

/// The surrogate's implied power for one input: Σ_j u_j·‖Ŵ[:,j]‖₁.
double surrogate_power(const nn::SingleLayerNet& surrogate, const tensor::Vector& u);

/// Batch variant: implied power for each row of U.
tensor::Vector surrogate_power_batch(const tensor::Matrix& W, const tensor::Matrix& U);

/// Adds Eq. 9's power-term gradient to `grad`: grad_ij += λ·sign(w_ij)·q_j,
/// where a zero weight contributes nothing. One call per λ > 0 minibatch
/// step of train_surrogate. The sign is applied arithmetically rather than
/// by branching on it (weights of random sign mispredict such a branch on
/// about half the elements); the result is the same bits as the branchy
/// update.
void add_power_sign_gradient(const tensor::Matrix& W, std::span<const double> q, double lambda,
                             tensor::Matrix& grad);

/// Fits a linear (Linear+Mse) surrogate to the query data with Eq. 9's
/// loss via minibatch SGD. Throws ConfigError on shape mismatches.
SurrogateTrainResult train_surrogate(const QueryDataset& queries, const SurrogateConfig& config);

/// Closed-form baseline for the Q ≥ N regime (Section IV's observation
/// that W = U†·Ŷ): least-squares fit, ignoring the power channel. Ridge
/// regularisation `lambda_ridge` handles Q < N or rank deficiency. The
/// normal-equations GEMMs block over the kernel layer and shard across
/// `pool` when given, so surrogate-extraction sweeps parallelize. A
/// caller that fits repeatedly (query-budget sweeps) can pass a Workspace
/// so the N×N normal-equations temporaries are reused across fits.
nn::SingleLayerNet fit_least_squares_surrogate(const QueryDataset& queries,
                                               double lambda_ridge = 0.0,
                                               ThreadPool* pool = nullptr,
                                               tensor::Workspace* ws = nullptr);

}  // namespace xbarsec::attack
