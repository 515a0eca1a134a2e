// Loss functions and their gradients.
//
// Supported pairings (the paper's two configurations, plus elementwise
// activations for the MLP extension):
//   * Mse with Linear/Sigmoid/Relu/Tanh outputs;
//   * CategoricalCrossentropy with Softmax (fused gradient ŷ − t).
// MSE is averaged over the output dimension (Keras convention, which the
// paper's tooling follows), so gradients carry a 2/M factor.
#pragma once

#include <string>

#include "xbarsec/nn/activation.hpp"
#include "xbarsec/tensor/matrix.hpp"
#include "xbarsec/tensor/vector.hpp"

namespace xbarsec::nn {

enum class Loss { Mse, CategoricalCrossentropy };

std::string to_string(Loss l);

/// Loss value for one sample given the post-activation output.
double loss_value(Loss loss, const tensor::Vector& y_hat, const tensor::Vector& target);

/// Gradient of the loss with respect to the *pre-activation* s for the
/// given activation/loss pairing. This is the δ vector backpropagated
/// into weight and input gradients. Throws ConfigError on an unsupported
/// pairing (softmax with MSE).
tensor::Vector loss_gradient_preactivation(Activation activation, Loss loss,
                                           const tensor::Vector& s,
                                           const tensor::Vector& target);

/// True when the pairing is supported by loss_gradient_preactivation.
bool pairing_supported(Activation activation, Loss loss);

// ---- batched variants -------------------------------------------------------
//
// Row r of each matrix is one sample. These are the minibatch hot paths —
// they compute row-wise without materialising per-sample Vectors, so the
// trainers touch each batch element exactly once.

/// Sum of per-sample losses: Σ_r loss_value(loss, Y.row(r), T.row(r)).
/// Y holds post-activation outputs.
double loss_value_batch_sum(Loss loss, const tensor::Matrix& Y, const tensor::Matrix& T);

/// Batched δ: row r is loss_gradient_preactivation(activation, loss,
/// S.row(r), T.row(r)). S holds pre-activations.
tensor::Matrix loss_gradient_preactivation_batch(Activation activation, Loss loss,
                                                 const tensor::Matrix& S,
                                                 const tensor::Matrix& T);

/// Same δ into a caller-provided workspace (resized, contents discarded;
/// must alias neither S nor T). Bit-identical to the returning form — the
/// trainers use it with Workspace slots to keep the minibatch loop
/// allocation-free.
void loss_gradient_preactivation_batch_into(Activation activation, Loss loss,
                                            const tensor::Matrix& S, const tensor::Matrix& T,
                                            tensor::Matrix& delta);

}  // namespace xbarsec::nn
