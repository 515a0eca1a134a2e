#include "xbarsec/nn/loss.hpp"

#include <cmath>

#include "xbarsec/common/error.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::nn {

namespace {
// Clamp for log() in crossentropy; matches common framework epsilons.
constexpr double kEps = 1e-12;
}

std::string to_string(Loss l) {
    switch (l) {
        case Loss::Mse: return "mse";
        case Loss::CategoricalCrossentropy: return "categorical_crossentropy";
    }
    return "?";
}

double loss_value(Loss loss, const tensor::Vector& y_hat, const tensor::Vector& target) {
    XS_EXPECTS(y_hat.size() == target.size());
    XS_EXPECTS(!y_hat.empty());
    switch (loss) {
        case Loss::Mse: {
            double acc = 0.0;
            for (std::size_t i = 0; i < y_hat.size(); ++i) {
                const double d = y_hat[i] - target[i];
                acc += d * d;
            }
            return acc / static_cast<double>(y_hat.size());
        }
        case Loss::CategoricalCrossentropy: {
            double acc = 0.0;
            for (std::size_t i = 0; i < y_hat.size(); ++i) {
                if (target[i] != 0.0) {
                    acc -= target[i] * std::log(std::max(y_hat[i], kEps));
                }
            }
            return acc;
        }
    }
    throw ConfigError("unhandled loss");
}

bool pairing_supported(Activation activation, Loss loss) {
    if (loss == Loss::CategoricalCrossentropy) return activation == Activation::Softmax;
    return activation != Activation::Softmax;  // MSE with any elementwise activation
}

tensor::Vector loss_gradient_preactivation(Activation activation, Loss loss,
                                           const tensor::Vector& s,
                                           const tensor::Vector& target) {
    XS_EXPECTS(s.size() == target.size());
    if (!pairing_supported(activation, loss)) {
        throw ConfigError("unsupported activation/loss pairing: " + to_string(activation) + "+" +
                          to_string(loss));
    }
    const tensor::Vector y_hat = apply_activation(activation, s);
    if (loss == Loss::CategoricalCrossentropy) {
        // Fused softmax + crossentropy: δ = ŷ − t.
        tensor::Vector delta(y_hat.size());
        for (std::size_t i = 0; i < delta.size(); ++i) delta[i] = y_hat[i] - target[i];
        return delta;
    }
    // MSE (mean over outputs): dL/dŷ = 2/M (ŷ − t); δ = dL/dŷ ⊙ f'(s).
    const double scale = 2.0 / static_cast<double>(y_hat.size());
    tensor::Vector delta(y_hat.size());
    const tensor::Vector fprime = activation_derivative(activation, s);
    for (std::size_t i = 0; i < delta.size(); ++i) {
        delta[i] = scale * (y_hat[i] - target[i]) * fprime[i];
    }
    return delta;
}

double loss_value_batch_sum(Loss loss, const tensor::Matrix& Y, const tensor::Matrix& T) {
    XS_EXPECTS(Y.rows() == T.rows() && Y.cols() == T.cols());
    XS_EXPECTS(Y.cols() > 0);
    const std::size_t n = Y.cols();
    double total = 0.0;
    if (loss == Loss::Mse) {
        const double inv_m = 1.0 / static_cast<double>(n);
        for (std::size_t r = 0; r < Y.rows(); ++r) {
            const double* __restrict y = Y.data() + r * n;
            const double* __restrict t = T.data() + r * n;
            double acc = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                const double d = y[i] - t[i];
                acc += d * d;
            }
            total += acc * inv_m;
        }
        return total;
    }
    for (std::size_t r = 0; r < Y.rows(); ++r) {
        const double* __restrict y = Y.data() + r * n;
        const double* __restrict t = T.data() + r * n;
        for (std::size_t i = 0; i < n; ++i) {
            if (t[i] != 0.0) total -= t[i] * std::log(std::max(y[i], kEps));
        }
    }
    return total;
}

tensor::Matrix loss_gradient_preactivation_batch(Activation activation, Loss loss,
                                                 const tensor::Matrix& S,
                                                 const tensor::Matrix& T) {
    tensor::Matrix delta;
    loss_gradient_preactivation_batch_into(activation, loss, S, T, delta);
    return delta;
}

void loss_gradient_preactivation_batch_into(Activation activation, Loss loss,
                                            const tensor::Matrix& S, const tensor::Matrix& T,
                                            tensor::Matrix& delta) {
    XS_EXPECTS(S.rows() == T.rows() && S.cols() == T.cols());
    XS_EXPECTS(S.cols() > 0);
    XS_EXPECTS(&delta != &S && &delta != &T);
    if (!pairing_supported(activation, loss)) {
        throw ConfigError("unsupported activation/loss pairing: " + to_string(activation) + "+" +
                          to_string(loss));
    }
    const std::size_t n = S.cols();
    delta.resize(S.rows(), n);

    if (loss == Loss::CategoricalCrossentropy) {
        // Fused softmax + crossentropy: δ row = softmax(s) − t, through
        // the same row kernel as the forward pass.
        for (std::size_t r = 0; r < S.rows(); ++r) {
            const double* __restrict t = T.data() + r * n;
            double* __restrict d = delta.data() + r * n;
            softmax_row(S.data() + r * n, d, n);
            for (std::size_t i = 0; i < n; ++i) d[i] -= t[i];
        }
        return;
    }

    // MSE with an elementwise activation: δ = 2/M·(f(s) − t)·f'(s),
    // evaluated with the same per-element expressions as the vector path.
    const double scale = 2.0 / static_cast<double>(n);
    const std::size_t total = S.rows() * n;
    const double* __restrict s = S.data();
    const double* __restrict t = T.data();
    double* __restrict d = delta.data();
    switch (activation) {
        case Activation::Linear:
            for (std::size_t i = 0; i < total; ++i) d[i] = scale * (s[i] - t[i]) * 1.0;
            break;
        case Activation::Sigmoid:
            for (std::size_t i = 0; i < total; ++i) {
                const double f = 1.0 / (1.0 + std::exp(-s[i]));
                d[i] = scale * (f - t[i]) * (f * (1.0 - f));
            }
            break;
        case Activation::Relu:
            for (std::size_t i = 0; i < total; ++i) {
                const double f = std::max(0.0, s[i]);
                d[i] = scale * (f - t[i]) * (s[i] > 0.0 ? 1.0 : 0.0);
            }
            break;
        case Activation::Tanh:
            for (std::size_t i = 0; i < total; ++i) {
                const double f = std::tanh(s[i]);
                d[i] = scale * (f - t[i]) * (1.0 - f * f);
            }
            break;
        case Activation::Softmax:
            throw ConfigError("unreachable: softmax+mse rejected above");
    }
}

}  // namespace xbarsec::nn
