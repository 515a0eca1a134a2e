// Output/hidden activation functions.
//
// The paper uses two output configurations: Linear (with MSE loss) and
// Softmax (with categorical crossentropy). Sigmoid/ReLU/Tanh are provided
// for the multi-layer extension. Softmax is vector-valued; the others act
// elementwise.
#pragma once

#include <span>
#include <string>

#include "xbarsec/tensor/matrix.hpp"
#include "xbarsec/tensor/vector.hpp"

namespace xbarsec::nn {

enum class Activation { Linear, Softmax, Sigmoid, Relu, Tanh };

/// Human-readable name ("linear", "softmax", ...).
std::string to_string(Activation a);

/// Applies the activation to a pre-activation vector.
tensor::Vector apply_activation(Activation a, const tensor::Vector& s);

/// apply_activation in place over one sample's pre-activations (no
/// allocation; the same bits as apply_activation).
void apply_activation_inplace(Activation a, std::span<double> s);

/// Row-wise application for a batch (each row is one sample's
/// pre-activation).
tensor::Matrix apply_activation_rows(Activation a, const tensor::Matrix& S);

/// Same computation into a caller-provided workspace (resized to S's
/// shape, prior contents discarded). `out` must not alias S. The trainers
/// use this with Workspace slots so the per-minibatch hot loop performs no
/// allocation; results are bit-identical to apply_activation_rows.
void apply_activation_rows_into(Activation a, const tensor::Matrix& S, tensor::Matrix& out);

/// Elementwise derivative f'(s) evaluated from the pre-activation value.
/// Not defined for Softmax (its Jacobian is not elementwise) — throws
/// ConfigError; softmax gradients are fused with crossentropy in loss.hpp.
tensor::Vector activation_derivative(Activation a, const tensor::Vector& s);

/// Row-wise f'(S) for a batch of pre-activations (same domain rules as
/// activation_derivative). The batched-backprop companion of
/// apply_activation_rows.
tensor::Matrix activation_derivative_rows(Activation a, const tensor::Matrix& S);

/// Workspace form of activation_derivative_rows (same contract as
/// apply_activation_rows_into).
void activation_derivative_rows_into(Activation a, const tensor::Matrix& S, tensor::Matrix& out);

/// Numerically stable softmax of one vector.
tensor::Vector softmax(const tensor::Vector& s);

/// Stable softmax of one contiguous row into `out` (may alias `s`'s
/// buffer only if identical). The single formulation shared by the
/// forward pass and the fused softmax+crossentropy gradient — keeping
/// them numerically in lockstep.
void softmax_row(const double* s, double* out, std::size_t n);

}  // namespace xbarsec::nn
