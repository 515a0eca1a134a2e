#include "xbarsec/attack/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "xbarsec/common/error.hpp"
#include "xbarsec/tensor/gemm.hpp"
#include "xbarsec/tensor/linalg.hpp"
#include "xbarsec/tensor/ops.hpp"

// The AVX-512 minibatch step (train_surrogate_avx512 below) reproduces the
// reference loop's separately rounded multiplies and adds bit for bit, so
// this file is compiled with -ffp-contract=off (CMakeLists.txt): in its
// avx512f-targeted loops GCC would otherwise fuse them into FMAs. A build
// whose baseline ISA already has FMA (XBARSEC_NATIVE) may contract the
// reference loop itself, so there the reference always runs.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__FMA__)
#define XS_SURROGATE_HAVE_AVX512_STEP 1
#include <immintrin.h>
#endif

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

#ifdef XS_SURROGATE_HAVE_AVX512_STEP

// ---- the AVX-512 minibatch step --------------------------------------------
//
// Each helper below vectorises one scalar loop of the reference step over
// the same operations in the same order per element, so every weight and
// loss comes out bit-identical (tests/test_surrogate.cpp). The two GEMMs
// are tensor's trainer kernels; the rest is Eq. 9's power term and the
// momentum update.

/// Mask of the first min(count, 8) lanes.
__mmask8 lanes_mask(std::size_t count) {
    return static_cast<__mmask8>(count >= 8 ? 0xFF : (1u << count) - 1);
}

/// out = tensor::column_abs_sums(W): rows in groups of four, summed
/// pairwise, then the leftover rows one by one.
__attribute__((target("avx512f"))) void column_abs_sums_avx512(const tensor::Matrix& W,
                                                               double* __restrict out) {
    const std::size_t m = W.rows(), n = W.cols();
    for (std::size_t j = 0; j < n; j += 8) {
        const __mmask8 k = lanes_mask(n - j);
        __m512d a[4];
        __m512d acc = _mm512_setzero_pd();
        std::size_t i = 0;
        for (; i + 4 <= m; i += 4) {
            for (std::size_t t = 0; t < 4; ++t) {
                a[t] = _mm512_abs_pd(_mm512_maskz_loadu_pd(k, W.data() + (i + t) * n + j));
            }
            acc += (a[0] + a[1]) + (a[2] + a[3]);
        }
        for (; i < m; ++i) acc += _mm512_abs_pd(_mm512_maskz_loadu_pd(k, W.data() + i * n + j));
        _mm512_mask_storeu_pd(out + j, k, acc);
    }
}

/// _mm512_shuffle_f64x2 (128-bit lanes) in its full-mask maskz form: the
/// plain form's undefined pass-through operand trips GCC 12's
/// -Wmaybe-uninitialized.
template <int kImm>
__attribute__((target("avx512f"), always_inline)) inline __m512d lanes(__m512d a, __m512d b) {
    return _mm512_maskz_shuffle_f64x2(0xFF, a, b, kImm);
}

/// p[r] = x_r·u for G groups of four rows, with tensor::matvec's chains:
/// each row of a four-row group sums its even and its odd elements in
/// two chains, added at the end. A zmm holds the two chains of four rows
/// (lanes row-major, even then odd), fed one element pair per row from a
/// 128-bit-lane transpose of the four rows' next eight elements.
template <std::size_t G>
__attribute__((target("avx512f"))) void dot_rows4_avx512(const double* const* rows,
                                                         const double* __restrict u, std::size_t n,
                                                         double* __restrict p) {
    __m512d acc[G];
    for (std::size_t g = 0; g < G; ++g) acc[g] = _mm512_setzero_pd();
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512d uv = _mm512_loadu_pd(u + j);
        const __m512d u0 = lanes<0x00>(uv, uv), u1 = lanes<0x55>(uv, uv);
        const __m512d u2 = lanes<0xAA>(uv, uv), u3 = lanes<0xFF>(uv, uv);
        for (std::size_t g = 0; g < G; ++g) {
            const double* const* r = rows + 4 * g;
            const __m512d l0 = _mm512_loadu_pd(r[0] + j), l1 = _mm512_loadu_pd(r[1] + j);
            const __m512d l2 = _mm512_loadu_pd(r[2] + j), l3 = _mm512_loadu_pd(r[3] + j);
            const __m512d a = lanes<0x44>(l0, l1), b = lanes<0xEE>(l0, l1);
            const __m512d c = lanes<0x44>(l2, l3), d = lanes<0xEE>(l2, l3);
            acc[g] += lanes<0x88>(a, c) * u0;
            acc[g] += lanes<0xDD>(a, c) * u1;
            acc[g] += lanes<0x88>(b, d) * u2;
            acc[g] += lanes<0xDD>(b, d) * u3;
        }
    }
    for (std::size_t g = 0; g < G; ++g) {
        double chains[8];
        _mm512_storeu_pd(chains, acc[g]);
        for (std::size_t t = 0; t < 4; ++t) {
            const double* __restrict x = rows[4 * g + t];
            double even = chains[2 * t], odd = chains[2 * t + 1];
            std::size_t jj = j;
            for (; jj + 2 <= n; jj += 2) {
                even += x[jj] * u[jj];
                odd += x[jj + 1] * u[jj + 1];
            }
            if (jj < n) even += x[jj] * u[jj];
            p[4 * g + t] = even + odd;
        }
    }
}

/// p = x·u with tensor::dot's four chains (element j feeds chain j mod 4),
/// for matvec's rows past the last four-row group.
__attribute__((target("avx512f"))) double dot_avx512(const double* __restrict x,
                                                     const double* __restrict u, std::size_t n) {
    __m256d acc = _mm256_setzero_pd();
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) acc += _mm256_loadu_pd(x + j) * _mm256_loadu_pd(u + j);
    double chains[4];
    _mm256_storeu_pd(chains, acc);
    double sum = (chains[0] + chains[1]) + (chains[2] + chains[3]);
    for (; j < n; ++j) sum += x[j] * u[j];
    return sum;
}

/// p = tensor::matvec(X, u) over X's rows in place.
void surrogate_power_rows_avx512(std::span<const double* const> rows, const double* u,
                                 std::size_t n, double* p) {
    const std::size_t b = rows.size();
    std::size_t r = 0;
    for (; r + 16 <= b; r += 16) dot_rows4_avx512<4>(rows.data() + r, u, n, p + r);
    for (; r + 4 <= b; r += 4) dot_rows4_avx512<1>(rows.data() + r, u, n, p + r);
    for (; r < b; ++r) p[r] = dot_avx512(rows[r], u, n);
}

/// q = tensor::matvec_transposed(X, e) over X's rows in place: each q_j
/// sums e_r·x_rj over r ascending, 32 columns per pass.
__attribute__((target("avx512f"))) void weighted_row_sum_avx512(std::span<const double* const> rows,
                                                                const double* e, std::size_t n,
                                                                double* __restrict q) {
    for (std::size_t j = 0; j < n; j += 32) {
        __mmask8 k[4];
        __m512d acc[4];
        for (std::size_t t = 0; t < 4; ++t) {
            k[t] = lanes_mask(j + 8 * t < n ? n - j - 8 * t : 0);
            acc[t] = _mm512_setzero_pd();
        }
        for (std::size_t r = 0; r < rows.size(); ++r) {
            const __m512d er = _mm512_set1_pd(e[r]);
            for (std::size_t t = 0; t < 4; ++t) {
                acc[t] += er * _mm512_maskz_loadu_pd(k[t], rows[r] + j + 8 * t);
            }
        }
        for (std::size_t t = 0; t < 4; ++t) _mm512_mask_storeu_pd(q + j + 8 * t, k[t], acc[t]);
    }
}

/// add_power_sign_gradient's AVX-512 loop: grad_ij += sign(w_ij)·(λ·q_j)
/// where w_ij is nonzero, the sign applied by flipping the sign bit.
__attribute__((target("avx512f"))) void add_power_sign_gradient_avx512(const tensor::Matrix& W,
                                                                       const double* q,
                                                                       double lambda,
                                                                       tensor::Matrix& grad) {
    const std::size_t m = W.rows(), n = W.cols();
    const __m512i sign_bit = _mm512_set1_epi64(static_cast<long long>(0x8000000000000000ull));
    for (std::size_t j = 0; j < n; j += 8) {
        const __mmask8 k = lanes_mask(n - j);
        const __m512d lq_pd = _mm512_set1_pd(lambda) * _mm512_maskz_loadu_pd(k, q + j);
        const __m512i lq = _mm512_castpd_si512(lq_pd);
        for (std::size_t i = 0; i < m; ++i) {
            const __m512d w = _mm512_maskz_loadu_pd(k, W.data() + i * n + j);
            double* g = grad.data() + i * n + j;
            const __mmask8 nonzero =
                _mm512_mask_cmp_pd_mask(k, _mm512_abs_pd(w), _mm512_setzero_pd(), _CMP_GT_OQ);
            const __m512d term = _mm512_castsi512_pd(
                _mm512_xor_si512(lq, _mm512_and_si512(_mm512_castpd_si512(w), sign_bit)));
            const __m512d gv = _mm512_maskz_loadu_pd(k, g);
            _mm512_mask_storeu_pd(g, nonzero, gv + term);
        }
    }
}

/// nn::Sgd::step with momentum: v = μ·v − lr·g, then w += v.
__attribute__((target("avx512f"))) void momentum_step_avx512(double* __restrict w,
                                                             double* __restrict v,
                                                             const double* __restrict g,
                                                             std::size_t count, double momentum,
                                                             double lr) {
    const __m512d mu = _mm512_set1_pd(momentum), rate = _mm512_set1_pd(lr);
    for (std::size_t i = 0; i < count; i += 8) {
        const __mmask8 k = lanes_mask(count - i);
        const __m512d vi =
            mu * _mm512_maskz_loadu_pd(k, v + i) - rate * _mm512_maskz_loadu_pd(k, g + i);
        _mm512_mask_storeu_pd(v + i, k, vi);
        _mm512_mask_storeu_pd(w + i, k, _mm512_maskz_loadu_pd(k, w + i) + vi);
    }
}

/// train_surrogate on the AVX-512 step (see avx512_surrogate_step_applies):
/// the reference's fit, step for step, with the minibatch's rows read in
/// place through the shuffled order and every buffer allocated once.
SurrogateTrainResult train_surrogate_avx512(const QueryDataset& queries,
                                            const SurrogateConfig& config) {
    validate(queries);
    XS_EXPECTS(config.power_loss_weight >= 0.0);
    const std::size_t n_inputs = queries.inputs.cols();
    const std::size_t n_outputs = queries.outputs.cols();
    const std::size_t Q = queries.size();
    const auto& tc = config.train;
    XS_EXPECTS(tc.epochs > 0 && tc.batch_size > 0);
    // nn::Sgd's contract, whose update this step performs.
    XS_EXPECTS(tc.learning_rate > 0.0 && tc.momentum > 0.0 && tc.momentum < 1.0);

    Rng init_rng(config.init_seed);
    SurrogateTrainResult result{
        nn::SingleLayerNet(init_rng, n_inputs, n_outputs, nn::Activation::Linear, nn::Loss::Mse),
        {},
        {}};
    result.epoch_output_loss.reserve(tc.epochs);
    result.epoch_power_loss.reserve(tc.epochs);
    tensor::Matrix& W = result.surrogate.weights();

    double lr = tc.learning_rate;
    double decay = 1.0;
    if (tc.final_lr_fraction > 0.0 && tc.epochs > 1) {
        decay = std::pow(tc.final_lr_fraction, 1.0 / static_cast<double>(tc.epochs - 1));
    }

    Rng shuffle_rng(tc.shuffle_seed);
    std::vector<std::size_t> order(Q);
    std::iota(order.begin(), order.end(), std::size_t{0});

    const double lambda = config.power_loss_weight;
    const double out_scale = 2.0 / static_cast<double>(n_outputs);
    const std::size_t max_b = std::min(tc.batch_size, Q);
    std::vector<const double*> xrows(max_b), trows(max_b);
    std::vector<double> scores(max_b * n_outputs), delta(max_b * n_outputs), p_hat(max_b),
        e(max_b), colabs(n_inputs), q(n_inputs), velocity(W.size(), 0.0);
    tensor::Matrix grad_w(n_outputs, n_inputs);

    for (std::size_t epoch = 0; epoch < tc.epochs; ++epoch) {
        shuffle_rng.shuffle(order);
        double out_loss_acc = 0.0, power_loss_acc = 0.0;
        std::size_t sample_count = 0;

        for (std::size_t lo = 0; lo < Q; lo += tc.batch_size) {
            const std::size_t hi = std::min(lo + tc.batch_size, Q);
            const std::size_t b = hi - lo;
            const double inv_b = 1.0 / static_cast<double>(b);
            for (std::size_t r = 0; r < b; ++r) {
                xrows[r] = queries.inputs.row_span(order[lo + r]).data();
                trows[r] = queries.outputs.row_span(order[lo + r]).data();
            }
            const std::span<const double* const> xb(xrows.data(), b);

            // ---- output term ------------------------------------------------
            tensor::gemm_gathered_forward(xb, W, {scores.data(), b * n_outputs});
            for (std::size_t r = 0; r < b; ++r) {
                const double* srow = scores.data() + r * n_outputs;
                double* drow = delta.data() + r * n_outputs;
                double sample_loss = 0.0;
                for (std::size_t c = 0; c < n_outputs; ++c) {
                    const double resid = srow[c] - trows[r][c];
                    drow[c] = out_scale * resid;
                    sample_loss += resid * resid;
                }
                out_loss_acc += sample_loss / static_cast<double>(n_outputs);
            }
            tensor::gemm_gathered_weight_gradient(inv_b, {delta.data(), b * n_outputs}, xb,
                                                  grad_w);

            // ---- power term (Eq. 9) -----------------------------------------
            if (lambda > 0.0) {
                column_abs_sums_avx512(W, colabs.data());
                surrogate_power_rows_avx512(xb, colabs.data(), n_inputs, p_hat.data());
                for (std::size_t r = 0; r < b; ++r) {
                    e[r] = p_hat[r] - queries.power[order[lo + r]];
                    power_loss_acc += e[r] * e[r];
                }
                const double e_scale = 2.0 * inv_b;
                for (std::size_t r = 0; r < b; ++r) e[r] *= e_scale;
                weighted_row_sum_avx512(xb, e.data(), n_inputs, q.data());
                add_power_sign_gradient(W, q, lambda, grad_w);
            }

            momentum_step_avx512(W.data(), velocity.data(), grad_w.data(), W.size(), tc.momentum,
                                 lr);
            sample_count += b;
        }

        result.epoch_output_loss.push_back(out_loss_acc / static_cast<double>(sample_count));
        result.epoch_power_loss.push_back(
            lambda > 0.0 ? power_loss_acc / static_cast<double>(sample_count) : 0.0);
        if (decay != 1.0) lr *= decay;
    }
    return result;
}

#endif  // XS_SURROGATE_HAVE_AVX512_STEP

}  // namespace

bool avx512_surrogate_step_applies(std::size_t inputs, std::size_t outputs,
                                   const nn::TrainConfig& train) {
#ifdef XS_SURROGATE_HAVE_AVX512_STEP
    return train.optimizer == nn::OptimizerKind::Sgd && train.momentum > 0.0 &&
           tensor::trainer_kernels_apply(outputs, inputs);
#else
    (void)inputs;
    (void)outputs;
    (void)train;
    return false;
#endif
}

SurrogateTrainResult train_surrogate(const QueryDataset& queries, const SurrogateConfig& config) {
#ifdef XS_SURROGATE_HAVE_AVX512_STEP
    if (avx512_surrogate_step_applies(queries.inputs.cols(), queries.outputs.cols(),
                                      config.train)) {
        return train_surrogate_avx512(queries, config);
    }
#endif
    return train_surrogate_reference(queries, config);
}

SurrogateTrainResult train_surrogate_reference(const QueryDataset& queries,
                                               const SurrogateConfig& config) {
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
#ifdef XS_SURROGATE_HAVE_AVX512_STEP
    if (tensor::avx512_in_effect()) {
        add_power_sign_gradient_avx512(W, q.data(), lambda, grad);
        return;
    }
#endif
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
