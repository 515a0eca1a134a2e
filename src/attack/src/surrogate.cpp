#include "xbarsec/attack/surrogate.hpp"

#include <algorithm>
#include <cmath>

#include "xbarsec/common/error.hpp"
#include "xbarsec/tensor/gemm.hpp"
#include "xbarsec/tensor/linalg.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::attack {

double surrogate_power(const nn::SingleLayerNet& surrogate, const tensor::Vector& u) {
    XS_EXPECTS(u.size() == surrogate.inputs());
    return tensor::dot(tensor::column_abs_sums(surrogate.weights()), u);
}

tensor::Vector surrogate_power_batch(const tensor::Matrix& W, const tensor::Matrix& U) {
    XS_EXPECTS(U.cols() == W.cols());
    // Eq. 9's p̂ for the whole batch is one matvec against the column
    // 1-norms (the same kernel the crossbar's batched power path uses).
    return tensor::matvec(U, tensor::column_abs_sums(W));
}

namespace {

void validate(const QueryDataset& q) {
    if (q.inputs.rows() == 0) throw ConfigError("surrogate: empty query set");
    if (q.outputs.rows() != q.inputs.rows()) {
        throw ConfigError("surrogate: inputs/outputs row mismatch");
    }
    if (q.power.size() != q.inputs.rows()) {
        throw ConfigError("surrogate: inputs/power row mismatch");
    }
}

}  // namespace

SurrogateTrainResult train_surrogate(const QueryDataset& queries, const SurrogateConfig& config) {
    validate(queries);
    XS_EXPECTS(config.power_loss_weight >= 0.0);
    const std::size_t n_inputs = queries.inputs.cols();
    const std::size_t n_outputs = queries.outputs.cols();
    const std::size_t Q = queries.size();
    const auto& tc = config.train;
    XS_EXPECTS(tc.epochs > 0 && tc.batch_size > 0);

    Rng init_rng(config.init_seed);
    SurrogateTrainResult result{
        nn::SingleLayerNet(init_rng, n_inputs, n_outputs, nn::Activation::Linear, nn::Loss::Mse),
        {},
        {}};
    nn::SingleLayerNet& net = result.surrogate;

    auto optimizer = nn::make_optimizer(tc.optimizer, tc.learning_rate, tc.momentum);
    const std::size_t w_slot = optimizer->register_parameter(net.weights().size());

    double decay = 1.0;
    if (tc.final_lr_fraction > 0.0 && tc.epochs > 1 && tc.optimizer == nn::OptimizerKind::Sgd) {
        decay = std::pow(tc.final_lr_fraction, 1.0 / static_cast<double>(tc.epochs - 1));
    }

    Rng shuffle_rng(tc.shuffle_seed);
    std::vector<std::size_t> order(Q);
    for (std::size_t i = 0; i < Q; ++i) order[i] = i;

    const double lambda = config.power_loss_weight;
    tensor::Matrix grad_w(n_outputs, n_inputs, 0.0);

    // Minibatch temporaries draw from one reused Workspace when the train
    // config's arena flag is on (see trainer.cpp — same pattern, same
    // bit-identical-either-way contract).
    tensor::Workspace arena_ws;

    for (std::size_t epoch = 0; epoch < tc.epochs; ++epoch) {
        shuffle_rng.shuffle(order);
        double out_loss_acc = 0.0, power_loss_acc = 0.0;
        std::size_t sample_count = 0;

        for (std::size_t lo = 0; lo < Q; lo += tc.batch_size) {
            const std::size_t hi = std::min(lo + tc.batch_size, Q);
            const std::size_t b = hi - lo;
            const double inv_b = 1.0 / static_cast<double>(b);
            tensor::Workspace fresh_ws;
            tensor::Workspace& ws = tc.arena ? arena_ws : fresh_ws;
            ws.reset();

            tensor::Matrix& xb = ws.matrix(b, queries.inputs.cols());
            tensor::gather_rows(queries.inputs, order, lo, hi, xb);
            tensor::Matrix& tb = ws.matrix(b, queries.outputs.cols());
            tensor::gather_rows(queries.outputs, order, lo, hi, tb);

            // ---- output term: linear activation, MSE over outputs -------
            tensor::Matrix& sb = ws.matrix(b, n_outputs);
            tensor::gemm(1.0, xb, tensor::Op::None, net.weights(), tensor::Op::Transpose, 0.0, sb);
            // δ = 2/M (ŷ − t); accumulate the loss from the same residuals.
            tensor::Matrix& delta = ws.matrix(b, n_outputs);
            const double out_scale = 2.0 / static_cast<double>(n_outputs);
            for (std::size_t r = 0; r < b; ++r) {
                const auto srow = sb.row_span(r);
                const auto trow = tb.row_span(r);
                auto drow = delta.row_span(r);
                double sample_loss = 0.0;
                for (std::size_t c = 0; c < n_outputs; ++c) {
                    const double resid = srow[c] - trow[c];
                    drow[c] = out_scale * resid;
                    sample_loss += resid * resid;
                }
                out_loss_acc += sample_loss / static_cast<double>(n_outputs);
            }
            tensor::gemm(inv_b, delta, tensor::Op::Transpose, xb, tensor::Op::None, 0.0, grad_w);

            // ---- power term (Eq. 9): p̂ = X·colabs(W) -------------------
            if (lambda > 0.0) {
                const tensor::Vector p_hat = surrogate_power_batch(net.weights(), xb);
                tensor::Vector& e = ws.vector(b);
                for (std::size_t r = 0; r < b; ++r) {
                    e[r] = p_hat[r] - queries.power[order[lo + r]];
                    power_loss_acc += e[r] * e[r];
                }
                // q_j = (2/b) Σ_r e_r x_rj = Xᵀ·(2/b·e), scaled in place
                // once the loss has been accumulated from the residuals;
                // ∂L_power/∂w_ij = λ·sign(w_ij)·q_j.
                e *= 2.0 * inv_b;
                const tensor::Vector q = tensor::matvec_transposed(xb, e);
                add_power_sign_gradient(net.weights(), q.span(), lambda, grad_w);
            }

            optimizer->step(w_slot, {net.weights().data(), net.weights().size()},
                            {grad_w.data(), grad_w.size()});
            sample_count += b;
        }

        result.epoch_output_loss.push_back(out_loss_acc / static_cast<double>(sample_count));
        result.epoch_power_loss.push_back(
            lambda > 0.0 ? power_loss_acc / static_cast<double>(sample_count) : 0.0);
        if (auto* sgd = dynamic_cast<nn::Sgd*>(optimizer.get()); sgd != nullptr && decay != 1.0) {
            sgd->set_learning_rate(sgd->learning_rate() * decay);
        }
    }
    return result;
}

void add_power_sign_gradient(const tensor::Matrix& W, std::span<const double> q, double lambda,
                             tensor::Matrix& grad) {
    XS_EXPECTS(grad.rows() == W.rows() && grad.cols() == W.cols());
    XS_EXPECTS(q.size() == W.cols());
    for (std::size_t i = 0; i < W.rows(); ++i) {
        const double* __restrict w = W.row_span(i).data();
        double* __restrict g = grad.row_span(i).data();
        for (std::size_t j = 0; j < q.size(); ++j) {
            // The sign enters as a multiply by ±1 (exact), and g + (−x) is
            // g − x bit for bit. Only zero (and NaN) weights take the
            // branch, which is rare enough to predict.
            if (std::fabs(w[j]) > 0.0) g[j] += std::copysign(1.0, w[j]) * (lambda * q[j]);
        }
    }
}

nn::SingleLayerNet fit_least_squares_surrogate(const QueryDataset& queries, double lambda_ridge,
                                               ThreadPool* pool, tensor::Workspace* ws) {
    validate(queries);
    const std::size_t n_inputs = queries.inputs.cols();
    const std::size_t n_outputs = queries.outputs.cols();
    tensor::Matrix Wt;  // N × M solution of min ‖U·X − Y‖
    if (lambda_ridge == 0.0 && queries.size() >= n_inputs) {
        Wt = tensor::lstsq(queries.inputs, queries.outputs);
    } else {
        Wt = tensor::ridge_solve(queries.inputs, queries.outputs,
                                 lambda_ridge > 0.0 ? lambda_ridge : 1e-8, pool, ws);
    }
    nn::DenseLayer layer(n_outputs, n_inputs, /*with_bias=*/false);
    layer.weights() = Wt.transposed();
    return nn::SingleLayerNet(std::move(layer), nn::Activation::Linear, nn::Loss::Mse);
}

}  // namespace xbarsec::attack
