// Single-layer neural network ŷ = f(W·u) — the paper's model class.
//
// The network couples a DenseLayer with an output activation and a loss,
// and exposes exactly the quantities the attacks consume:
//   * predict / predict_batch / classify          (inference)
//   * loss                                        (per-sample loss value)
//   * input_gradient                              (Eq. 7's ∂L/∂u)
//   * preactivation_delta                         (δ = ∂L/∂s, for training)
#pragma once

#include "xbarsec/nn/activation.hpp"
#include "xbarsec/nn/layer.hpp"
#include "xbarsec/nn/loss.hpp"

namespace xbarsec::nn {

/// The paper's single-layer model with its training loss attached.
class SingleLayerNet {
public:
    SingleLayerNet() = default;

    /// Glorot-initialised network. The (activation, loss) pairing must be
    /// supported (see loss.hpp); the paper uses Linear+Mse and
    /// Softmax+CategoricalCrossentropy.
    SingleLayerNet(Rng& rng, std::size_t inputs, std::size_t outputs, Activation activation,
                   Loss loss, bool with_bias = false);

    /// Wraps an existing layer (e.g. one recovered by an attack).
    SingleLayerNet(DenseLayer layer, Activation activation, Loss loss);

    std::size_t inputs() const { return layer_.inputs(); }
    std::size_t outputs() const { return layer_.outputs(); }
    Activation activation() const { return activation_; }
    Loss loss_kind() const { return loss_; }

    const DenseLayer& layer() const { return layer_; }
    DenseLayer& layer() { return layer_; }
    const tensor::Matrix& weights() const { return layer_.weights(); }
    tensor::Matrix& weights() { return layer_.weights(); }

    /// Post-activation output ŷ = f(s).
    tensor::Vector predict(const tensor::Vector& u) const;

    /// Batch outputs, one row per sample.
    tensor::Matrix predict_batch(const tensor::Matrix& U) const;

    /// Argmax class label of ŷ.
    int classify(const tensor::Vector& u) const;

    /// Per-sample loss L(f(W·u), target).
    double loss(const tensor::Vector& u, const tensor::Vector& target) const;

    /// δ = ∂L/∂s for one sample (used by trainers).
    tensor::Vector preactivation_delta(const tensor::Vector& u, const tensor::Vector& target) const;

    /// Batched δ: row r is preactivation_delta(U.row(r), T.row(r)),
    /// computed through the batch forward GEMM.
    tensor::Matrix preactivation_delta_batch(const tensor::Matrix& U,
                                             const tensor::Matrix& T) const;

    /// Eq. 7: ∂L/∂u = Wᵀ·δ. The gradient the white-box "Worst" attack and
    /// the FGSM baselines use.
    tensor::Vector input_gradient(const tensor::Vector& u, const tensor::Vector& target) const;

    /// Batched Eq. 7: row r is input_gradient(U.row(r), T.row(r)). One
    /// forward GEMM plus one Δ·W GEMM — the whole-testset gradient kernel
    /// behind the batched FGSM/PGD attack loops.
    tensor::Matrix input_gradient_batch(const tensor::Matrix& U, const tensor::Matrix& T) const;

private:
    DenseLayer layer_;
    Activation activation_ = Activation::Linear;
    Loss loss_ = Loss::Mse;
};

}  // namespace xbarsec::nn
