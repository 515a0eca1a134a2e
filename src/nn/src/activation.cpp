#include "xbarsec/nn/activation.hpp"

#include <algorithm>
#include <cmath>

#include "xbarsec/common/error.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::nn {

std::string to_string(Activation a) {
    switch (a) {
        case Activation::Linear: return "linear";
        case Activation::Softmax: return "softmax";
        case Activation::Sigmoid: return "sigmoid";
        case Activation::Relu: return "relu";
        case Activation::Tanh: return "tanh";
    }
    return "?";
}

Activation activation_from_string(const std::string& name) {
    if (name == "linear") return Activation::Linear;
    if (name == "softmax") return Activation::Softmax;
    if (name == "sigmoid") return Activation::Sigmoid;
    if (name == "relu") return Activation::Relu;
    if (name == "tanh") return Activation::Tanh;
    throw ConfigError("unknown activation '" + name + "'");
}

void softmax_row(const double* s, double* out, std::size_t n) {
    XS_EXPECTS(n > 0);
    double m = s[0];
    for (std::size_t i = 1; i < n; ++i) m = std::max(m, s[i]);
    double denom = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = std::exp(s[i] - m);
        denom += out[i];
    }
    for (std::size_t i = 0; i < n; ++i) out[i] /= denom;
}

tensor::Vector softmax(const tensor::Vector& s) {
    XS_EXPECTS(!s.empty());
    tensor::Vector out(s.size());
    softmax_row(s.data(), out.data(), s.size());
    return out;
}

tensor::Vector apply_activation(Activation a, const tensor::Vector& s) {
    tensor::Vector out = s;
    apply_activation_inplace(a, out.span());
    return out;
}

void apply_activation_inplace(Activation a, std::span<double> s) {
    switch (a) {
        case Activation::Linear: return;
        case Activation::Softmax: softmax_row(s.data(), s.data(), s.size()); return;
        case Activation::Sigmoid:
            for (double& x : s) x = 1.0 / (1.0 + std::exp(-x));
            return;
        case Activation::Relu:
            for (double& x : s) x = std::max(0.0, x);
            return;
        case Activation::Tanh:
            for (double& x : s) x = std::tanh(x);
            return;
    }
    throw ConfigError("unhandled activation");
}

tensor::Matrix apply_activation_rows(Activation a, const tensor::Matrix& S) {
    if (a == Activation::Linear) return S;
    tensor::Matrix out(S.rows(), S.cols());
    apply_activation_rows_into(a, S, out);
    return out;
}

void apply_activation_rows_into(Activation a, const tensor::Matrix& S, tensor::Matrix& out) {
    XS_EXPECTS(&out != &S);
    out.resize(S.rows(), S.cols());
    const std::size_t n = S.cols();
    if (a == Activation::Linear) {
        std::copy(S.data(), S.data() + S.size(), out.data());
        return;
    }
    if (a == Activation::Softmax) {
        // Per-row stable softmax (the normalisation is per sample, so
        // rows are independent).
        for (std::size_t r = 0; r < S.rows(); ++r) {
            softmax_row(S.data() + r * n, out.data() + r * n, n);
        }
        return;
    }
    // Elementwise activations: one pass over the whole batch.
    const std::size_t total = S.rows() * n;
    const double* __restrict s = S.data();
    double* __restrict o = out.data();
    switch (a) {
        case Activation::Sigmoid:
            for (std::size_t i = 0; i < total; ++i) o[i] = 1.0 / (1.0 + std::exp(-s[i]));
            break;
        case Activation::Relu:
            for (std::size_t i = 0; i < total; ++i) o[i] = std::max(0.0, s[i]);
            break;
        case Activation::Tanh:
            for (std::size_t i = 0; i < total; ++i) o[i] = std::tanh(s[i]);
            break;
        case Activation::Linear:
        case Activation::Softmax:
            break;  // handled above
    }
}

tensor::Matrix activation_derivative_rows(Activation a, const tensor::Matrix& S) {
    tensor::Matrix out;
    activation_derivative_rows_into(a, S, out);
    return out;
}

void activation_derivative_rows_into(Activation a, const tensor::Matrix& S, tensor::Matrix& out) {
    XS_EXPECTS(&out != &S);
    if (a == Activation::Softmax) {
        throw ConfigError(
            "softmax has no elementwise derivative; use the fused softmax+crossentropy "
            "gradient in loss.hpp");
    }
    out.resize(S.rows(), S.cols());
    const std::size_t total = S.rows() * S.cols();
    const double* __restrict s = S.data();
    double* __restrict o = out.data();
    switch (a) {
        case Activation::Linear:
            for (std::size_t i = 0; i < total; ++i) o[i] = 1.0;
            break;
        case Activation::Sigmoid:
            for (std::size_t i = 0; i < total; ++i) {
                const double f = 1.0 / (1.0 + std::exp(-s[i]));
                o[i] = f * (1.0 - f);
            }
            break;
        case Activation::Relu:
            for (std::size_t i = 0; i < total; ++i) o[i] = s[i] > 0.0 ? 1.0 : 0.0;
            break;
        case Activation::Tanh:
            for (std::size_t i = 0; i < total; ++i) {
                const double t = std::tanh(s[i]);
                o[i] = 1.0 - t * t;
            }
            break;
        case Activation::Softmax:
            break;  // unreachable
    }
}

tensor::Vector activation_derivative(Activation a, const tensor::Vector& s) {
    switch (a) {
        case Activation::Linear: return tensor::Vector(s.size(), 1.0);
        case Activation::Softmax:
            throw ConfigError(
                "softmax has no elementwise derivative; use the fused softmax+crossentropy "
                "gradient in loss.hpp");
        case Activation::Sigmoid: {
            tensor::Vector out(s.size());
            for (std::size_t i = 0; i < s.size(); ++i) {
                const double f = 1.0 / (1.0 + std::exp(-s[i]));
                out[i] = f * (1.0 - f);
            }
            return out;
        }
        case Activation::Relu: {
            tensor::Vector out(s.size());
            for (std::size_t i = 0; i < s.size(); ++i) out[i] = s[i] > 0.0 ? 1.0 : 0.0;
            return out;
        }
        case Activation::Tanh: {
            tensor::Vector out(s.size());
            for (std::size_t i = 0; i < s.size(); ++i) {
                const double t = std::tanh(s[i]);
                out[i] = 1.0 - t * t;
            }
            return out;
        }
    }
    throw ConfigError("unhandled activation");
}

}  // namespace xbarsec::nn
