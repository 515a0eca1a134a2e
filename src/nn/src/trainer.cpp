#include "xbarsec/nn/trainer.hpp"

#include <algorithm>
#include <cmath>

#include "xbarsec/common/log.hpp"
#include "xbarsec/common/rng.hpp"
#include "xbarsec/tensor/gemm.hpp"
#include "xbarsec/tensor/ops.hpp"
#include "xbarsec/tensor/workspace.hpp"

namespace xbarsec::nn {

tensor::Matrix batch_preactivation_delta(Activation activation, Loss loss,
                                         const tensor::Matrix& S, const tensor::Matrix& T) {
    return loss_gradient_preactivation_batch(activation, loss, S, T);
}

namespace {

TrainHistory train_impl(SingleLayerNet& net, const tensor::Matrix& X, const tensor::Matrix& Y,
                        const TrainConfig& config) {
    XS_EXPECTS(X.rows() == Y.rows());
    XS_EXPECTS(X.rows() > 0);
    XS_EXPECTS(X.cols() == net.inputs() && Y.cols() == net.outputs());
    XS_EXPECTS(config.epochs > 0 && config.batch_size > 0);

    const std::size_t n = X.rows();
    auto optimizer = make_optimizer(config.optimizer, config.learning_rate, config.momentum);
    const std::size_t w_slot = optimizer->register_parameter(net.weights().size());
    std::size_t b_slot = 0;
    if (net.layer().has_bias()) {
        b_slot = optimizer->register_parameter(net.layer().bias().size());
    }

    // Geometric LR decay (Sgd only; Adam adapts on its own).
    double decay = 1.0;
    if (config.final_lr_fraction > 0.0 && config.epochs > 1 &&
        config.optimizer == OptimizerKind::Sgd) {
        decay = std::pow(config.final_lr_fraction, 1.0 / static_cast<double>(config.epochs - 1));
    }

    Rng rng(config.shuffle_seed);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;

    TrainHistory history;
    history.epoch_loss.reserve(config.epochs);
    tensor::Matrix grad_w(net.outputs(), net.inputs(), 0.0);

    // With config.arena the minibatch temporaries live in one Workspace
    // that is reset (not freed) every iteration; arena off keeps the old
    // allocate-per-batch behaviour by constructing a fresh Workspace each
    // time. Same code path, so the arithmetic is identical bit for bit.
    tensor::Workspace arena_ws;
    tensor::Vector grad_b;  // bias gradient, reused across batches

    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        rng.shuffle(order);
        double loss_acc = 0.0;
        std::size_t loss_count = 0;
        for (std::size_t lo = 0; lo < n; lo += config.batch_size) {
            const std::size_t hi = std::min(lo + config.batch_size, n);
            tensor::Workspace fresh_ws;
            tensor::Workspace& ws = config.arena ? arena_ws : fresh_ws;
            ws.reset();

            tensor::Matrix& xb = ws.matrix(hi - lo, X.cols());
            tensor::gather_rows(X, order, lo, hi, xb);
            tensor::Matrix& tb = ws.matrix(hi - lo, Y.cols());
            tensor::gather_rows(Y, order, lo, hi, tb);
            tensor::Matrix& sb = ws.matrix(hi - lo, net.outputs());
            net.layer().forward_batch_into(xb, sb);
            tensor::Matrix& delta = ws.matrix(hi - lo, net.outputs());
            loss_gradient_preactivation_batch_into(net.activation(), net.loss_kind(), sb, tb,
                                                   delta);

            // Accumulate the epoch's training loss from the same forward pass.
            tensor::Matrix& yb = ws.matrix(hi - lo, net.outputs());
            apply_activation_rows_into(net.activation(), sb, yb);
            loss_acc += loss_value_batch_sum(net.loss_kind(), yb, tb);
            loss_count += sb.rows();

            // grad_W = deltaᵀ · X_batch / batch.
            const double inv_b = 1.0 / static_cast<double>(hi - lo);
            tensor::gemm(inv_b, delta, tensor::Op::Transpose, xb, tensor::Op::None, 0.0, grad_w);
            optimizer->step(w_slot, {net.weights().data(), net.weights().size()},
                            {grad_w.data(), grad_w.size()});

            if (net.layer().has_bias()) {
                grad_b.resize(net.outputs());
                grad_b.fill(0.0);
                for (std::size_t r = 0; r < delta.rows(); ++r) {
                    const auto drow = delta.row_span(r);
                    for (std::size_t j = 0; j < drow.size(); ++j) grad_b[j] += inv_b * drow[j];
                }
                optimizer->step(b_slot, {net.layer().bias().data(), net.layer().bias().size()},
                                {grad_b.data(), grad_b.size()});
            }
        }
        history.epoch_loss.push_back(loss_acc / static_cast<double>(loss_count));
        if (auto* sgd = dynamic_cast<Sgd*>(optimizer.get()); sgd != nullptr && decay != 1.0) {
            sgd->set_learning_rate(sgd->learning_rate() * decay);
        }
        if (config.verbose) {
            log::info("epoch ", epoch + 1, "/", config.epochs, " loss=",
                      history.epoch_loss.back());
        }
    }
    return history;
}

}  // namespace

TrainHistory train(SingleLayerNet& net, const data::Dataset& dataset, const TrainConfig& config) {
    return train_impl(net, dataset.inputs(), dataset.targets(), config);
}

TrainHistory train_regression(SingleLayerNet& net, const tensor::Matrix& X,
                              const tensor::Matrix& Y, const TrainConfig& config) {
    return train_impl(net, X, Y, config);
}

}  // namespace xbarsec::nn
