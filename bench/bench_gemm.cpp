// Scalar-vs-kernel GEMM throughput at the paper's shapes.
//
// Measures the packed-panel register-tile kernel (tensor/gemm.cpp) against
// the PR-1 blocked-axpy kernel (kept here verbatim as the baseline) on the
// minibatch products that dominate surrogate training:
//   * forward   (batch×N)·(N×10)ᵀ   — X·Wᵀ at the 10×784 / 10×3072 arrays
//   * gradient  (10×batch)ᵀ·(batch×N) — Δᵀ·X weight gradients
// plus a square product and the ThreadPool-sharded kernel. Two further
// series measure this PR's work: per-ISA-arm throughput (portable / AVX2 /
// AVX-512 via set_kernel_variant) on the paper shapes plus the
// normal-equations and hidden-layer products, and the trainer hot loop
// with the workspace arena on vs off. Results go to BENCH_gemm.json via
// the shared recorder; the full run fails (non-zero exit) if the kernel
// does not hold >= 2x single-thread throughput over the PR-1 baseline on
// the paper-shape products, or — on avx512f hosts, where this PR's
// trainer-path win lives — if AVX-512 does not reach >= 1.3x over AVX2
// on at least two shapes or the arena-backed trainer path does not reach
// >= 1.2x on at least one trainer shape. (On AVX2-only hosts the arena
// contributes only allocation reuse, a few percent; the series is still
// recorded but not gated.) A skinny-output series times the 10-class head
// from one row to full batches on every arm (repeated trials, host core
// count recorded); on avx512f hosts the full run also fails if the
// skinny-output path is slower than the AVX2 packed tiles at any of its
// shapes. A last series times the Eq. 9 surrogate fit per minibatch at the
// extract shapes, train_surrogate against train_surrogate_reference; where
// the AVX-512 step applies, the full run fails unless it is >= 1.5x the
// reference at every shape.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "record.hpp"
#include "xbarsec/attack/surrogate.hpp"
#include "xbarsec/common/cli.hpp"
#include "xbarsec/common/rng.hpp"
#include "xbarsec/common/table.hpp"
#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/common/timer.hpp"
#include "xbarsec/data/dataset.hpp"
#include "xbarsec/nn/mlp_trainer.hpp"
#include "xbarsec/nn/trainer.hpp"
#include "xbarsec/tensor/gemm.hpp"
#include "xbarsec/tensor/ops.hpp"

using namespace xbarsec;
using tensor::KernelVariant;
using tensor::Matrix;
using tensor::Op;

namespace {

// ---- the PR-1 kernel, verbatim, as the measurement baseline -----------------
namespace pr1 {

constexpr std::size_t kBlockI = 64;
constexpr std::size_t kBlockK = 256;

void gemm_nn(double alpha, const Matrix& A, const Matrix& B, Matrix& C) {
    const std::size_t m = A.rows(), k = A.cols(), n = B.cols();
    for (std::size_t i0 = 0; i0 < m; i0 += kBlockI) {
        const std::size_t i1 = std::min(i0 + kBlockI, m);
        for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
            const std::size_t k1 = std::min(k0 + kBlockK, k);
            for (std::size_t i = i0; i < i1; ++i) {
                const double* arow = A.data() + i * k;
                double* crow = C.data() + i * n;
                for (std::size_t p = k0; p < k1; ++p) {
                    const double aip = alpha * arow[p];
                    if (aip == 0.0) continue;
                    const double* brow = B.data() + p * n;
                    for (std::size_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
                }
            }
        }
    }
}

void gemm(double alpha, const Matrix& A, Op opA, const Matrix& B, Op opB, Matrix& C) {
    C.fill(0.0);
    if (opA == Op::None && opB == Op::None) gemm_nn(alpha, A, B, C);
    else if (opA == Op::Transpose && opB == Op::None) gemm_nn(alpha, A.transposed(), B, C);
    else if (opA == Op::None && opB == Op::Transpose) gemm_nn(alpha, A, B.transposed(), C);
    else gemm_nn(alpha, A.transposed(), B.transposed(), C);
}

}  // namespace pr1

// ---- the pre-arena trainer loops, verbatim, as the measurement baseline -----
//
// What the trainers did before the workspace arena: fresh zero-filled
// Matrix temporaries every minibatch, by-value helper returns. Timed under
// the kernel arm the previous PR dispatched (AVX2 where available) so the
// recorded trainer-path speedup is exactly what this PR changed: arena
// reuse + the AVX-512 dispatcher arm.
namespace seedtrainer {

Matrix gather_rows(const Matrix& src, const std::vector<std::size_t>& idx, std::size_t lo,
                   std::size_t hi) {
    Matrix out(hi - lo, src.cols());
    for (std::size_t r = lo; r < hi; ++r) {
        const auto s = src.row_span(idx[r]);
        auto d = out.row_span(r - lo);
        std::copy(s.begin(), s.end(), d.begin());
    }
    return out;
}

void train_regression(nn::SingleLayerNet& net, const Matrix& X, const Matrix& Y,
                      const nn::TrainConfig& config) {
    const std::size_t n = X.rows();
    auto optimizer = nn::make_optimizer(config.optimizer, config.learning_rate, config.momentum);
    const std::size_t w_slot = optimizer->register_parameter(net.weights().size());
    Rng rng(config.shuffle_seed);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    Matrix grad_w(net.outputs(), net.inputs(), 0.0);
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        rng.shuffle(order);
        for (std::size_t lo = 0; lo < n; lo += config.batch_size) {
            const std::size_t hi = std::min(lo + config.batch_size, n);
            const Matrix xb = gather_rows(X, order, lo, hi);
            const Matrix tb = gather_rows(Y, order, lo, hi);
            const Matrix sb = net.layer().forward_batch(xb);
            const Matrix delta =
                nn::batch_preactivation_delta(net.activation(), net.loss_kind(), sb, tb);
            nn::loss_value_batch_sum(net.loss_kind(),
                                     nn::apply_activation_rows(net.activation(), sb), tb);
            const double inv_b = 1.0 / static_cast<double>(hi - lo);
            tensor::gemm(inv_b, delta, Op::Transpose, xb, Op::None, 0.0, grad_w);
            optimizer->step(w_slot, {net.weights().data(), net.weights().size()},
                            {grad_w.data(), grad_w.size()});
        }
    }
}

void train_mlp(nn::Mlp& mlp, const data::Dataset& dataset, const nn::TrainConfig& config) {
    const std::size_t L = mlp.depth();
    auto optimizer = nn::make_optimizer(config.optimizer, config.learning_rate, config.momentum);
    std::vector<std::size_t> w_slots(L), b_slots(L);
    for (std::size_t l = 0; l < L; ++l) {
        w_slots[l] = optimizer->register_parameter(mlp.layers()[l].weights().size());
        if (mlp.layers()[l].has_bias()) {
            b_slots[l] = optimizer->register_parameter(mlp.layers()[l].bias().size());
        }
    }
    Rng rng(config.shuffle_seed);
    std::vector<std::size_t> order(dataset.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    const nn::Activation out_act = mlp.config().output_activation;
    const nn::Activation hid_act = mlp.config().hidden_activation;
    const nn::Loss loss = mlp.config().loss;
    std::vector<Matrix> grad_w(L);
    for (std::size_t l = 0; l < L; ++l) {
        grad_w[l] = Matrix(mlp.layers()[l].weights().rows(), mlp.layers()[l].weights().cols(),
                           0.0);
    }
    std::vector<Matrix> inputs(L), pre(L);
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        rng.shuffle(order);
        for (std::size_t lo = 0; lo < dataset.size(); lo += config.batch_size) {
            const std::size_t hi = std::min(lo + config.batch_size, dataset.size());
            const double inv_b = 1.0 / static_cast<double>(hi - lo);
            const Matrix tb = gather_rows(dataset.targets(), order, lo, hi);
            Matrix x = gather_rows(dataset.inputs(), order, lo, hi);
            for (std::size_t l = 0; l < L; ++l) {
                inputs[l] = std::move(x);
                pre[l] = mlp.layers()[l].forward_batch(inputs[l]);
                x = nn::apply_activation_rows(l + 1 == L ? out_act : hid_act, pre[l]);
            }
            nn::loss_value_batch_sum(loss, x, tb);
            std::vector<tensor::Vector> grad_b(L);
            Matrix delta = nn::loss_gradient_preactivation_batch(out_act, loss, pre[L - 1], tb);
            for (std::size_t lrev = 0; lrev < L; ++lrev) {
                const std::size_t l = L - 1 - lrev;
                tensor::gemm(inv_b, delta, Op::Transpose, inputs[l], Op::None, 0.0, grad_w[l]);
                if (mlp.layers()[l].has_bias()) {
                    grad_b[l] = tensor::column_sums(delta);
                    grad_b[l] *= inv_b;
                }
                if (l > 0) {
                    Matrix upstream(delta.rows(), mlp.layers()[l].weights().cols(), 0.0);
                    tensor::gemm(1.0, delta, Op::None, mlp.layers()[l].weights(), Op::None, 0.0,
                                 upstream);
                    const Matrix fprime = nn::activation_derivative_rows(hid_act, pre[l - 1]);
                    double* __restrict up = upstream.data();
                    const double* __restrict fp = fprime.data();
                    for (std::size_t i = 0; i < upstream.size(); ++i) up[i] *= fp[i];
                    delta = std::move(upstream);
                }
            }
            for (std::size_t l = 0; l < L; ++l) {
                Matrix& W = mlp.layers()[l].weights();
                optimizer->step(w_slots[l], {W.data(), W.size()},
                                {grad_w[l].data(), grad_w[l].size()});
                if (mlp.layers()[l].has_bias()) {
                    tensor::Vector& b = mlp.layers()[l].bias();
                    optimizer->step(b_slots[l], {b.data(), b.size()},
                                    {grad_b[l].data(), grad_b[l].size()});
                }
            }
        }
    }
}

}  // namespace seedtrainer

struct Shape {
    std::string label;
    bool gate = false;  ///< participates in the >= 2x acceptance check
    std::size_t m, k, n;
    Op opA, opB;
};

/// Best-of-`reps` throughput in GFLOP/s (best-of removes scheduler noise
/// from a single-core container).
template <typename Fn>
double gflops(const Fn& run, std::size_t m, std::size_t k, std::size_t n, std::size_t reps) {
    const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                         static_cast<double>(n);
    const std::size_t inner = std::max<std::size_t>(1, static_cast<std::size_t>(2e8 / flops));
    run();  // warm
    double best = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
        WallTimer timer;
        for (std::size_t i = 0; i < inner; ++i) run();
        best = std::max(best, flops * static_cast<double>(inner) / timer.seconds());
    }
    return best / 1e9;
}

/// Repeated trials of one product: per-call time median/min/max over
/// `trials` timed batches, and the median's GFLOP/s.
struct Trials {
    double median_us, min_us, max_us, gflops;
};

template <typename Fn>
Trials time_trials(const Fn& run, std::size_t m, std::size_t k, std::size_t n,
                   std::size_t trials) {
    const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                         static_cast<double>(n);
    const std::size_t inner = std::max<std::size_t>(1, static_cast<std::size_t>(5e7 / flops));
    run();  // warm
    std::vector<double> us;
    for (std::size_t r = 0; r < trials; ++r) {
        WallTimer timer;
        for (std::size_t i = 0; i < inner; ++i) run();
        us.push_back(timer.seconds() * 1e6 / static_cast<double>(inner));
    }
    std::sort(us.begin(), us.end());
    const double median = us[us.size() / 2];
    return {median, us.front(), us.back(), flops / median * 1e-3};
}

}  // namespace

int main(int argc, char** argv) {
    Cli cli("bench_gemm — packed-panel kernel vs the PR-1 blocked-axpy baseline");
    cli.flag("batch", "256", "minibatch dimension of the training-shape products");
    cli.flag("reps", "7", "timed repetitions per measurement (best-of)");
    cli.flag("out", "BENCH_gemm.json", "JSON results path");
    cli.flag("smoke", "false", "tiny configuration for CI smoke runs");
    try {
        if (!cli.parse(argc, argv)) return 0;
        const std::size_t batch = static_cast<std::size_t>(cli.integer("batch"));
        std::size_t reps = static_cast<std::size_t>(cli.integer("reps"));
        // The full run enforces the 2x acceptance bar; the CI smoke run is a
        // regression canary on noisy shared runners, so it gates at 1.5x.
        double gate = 2.0;
        if (cli.boolean("smoke")) {
            reps = 3;
            gate = 1.5;
        }

        const std::vector<Shape> shapes = {
            {"fwd mnist (" + std::to_string(batch) + "x784)*(784x10)", true, batch, 784, 10,
             Op::None, Op::Transpose},
            {"grad mnist (10x" + std::to_string(batch) + ")*(" + std::to_string(batch) + "x784)",
             true, 10, batch, 784, Op::Transpose, Op::None},
            {"fwd cifar (" + std::to_string(batch) + "x3072)*(3072x10)", true, batch, 3072, 10,
             Op::None, Op::Transpose},
            {"grad cifar (10x" + std::to_string(batch) + ")*(" + std::to_string(batch) + "x3072)",
             true, 10, batch, 3072, Op::Transpose, Op::None},
            {"square 256", false, 256, 256, 256, Op::None, Op::None},
        };

        ThreadPool pool;
        const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
        bench::BenchRecorder rec("gemm", "paper-shape GEMMs, kernel vs PR-1 baseline, best-of-" +
                                             std::to_string(reps) + "; host with " +
                                             std::to_string(cores) + " cores");
        Table table({"Shape", "PR-1 GF/s", "Kernel GF/s", "Speedup", "Pooled GF/s"});
        bool pass = true;

        for (const Shape& s : shapes) {
            Rng rng(s.m * 31 + s.k * 7 + s.n);
            const Matrix A = Matrix::random_normal(rng, s.opA == Op::None ? s.m : s.k,
                                                   s.opA == Op::None ? s.k : s.m);
            const Matrix B = Matrix::random_normal(rng, s.opB == Op::None ? s.k : s.n,
                                                   s.opB == Op::None ? s.n : s.k);
            Matrix C(s.m, s.n, 0.0);

            const double base = gflops(
                [&] { pr1::gemm(1.0, A, s.opA, B, s.opB, C); }, s.m, s.k, s.n, reps);
            const double kern = gflops(
                [&] { tensor::gemm(1.0, A, s.opA, B, s.opB, 0.0, C); }, s.m, s.k, s.n, reps);
            const double pooled = gflops(
                [&] { tensor::gemm(1.0, A, s.opA, B, s.opB, 0.0, C, &pool); }, s.m, s.k, s.n,
                reps);
            const double speedup = kern / base;

            table.begin_row();
            table.add(s.label);
            table.add(base, 2);
            table.add(kern, 2);
            table.add(speedup, 2);
            table.add(pooled, 2);

            rec.begin(s.label);
            rec.add("m", static_cast<long long>(s.m));
            rec.add("k", static_cast<long long>(s.k));
            rec.add("n", static_cast<long long>(s.n));
            rec.add("baseline_gflops", base);
            rec.add("kernel_gflops", kern);
            rec.add("pooled_gflops", pooled);
            rec.add("speedup", speedup);

            if (s.gate && speedup < gate) {
                pass = false;
                std::cout << "FAIL: " << s.label << " at " << Table::format_number(speedup, 2)
                          << "x (target >= " << Table::format_number(gate, 1) << "x)\n";
            }
        }

        std::cout << "\n## GEMM kernel throughput (paper shapes)\n\n" << table;

        // ---- per-ISA-arm series ---------------------------------------------
        //
        // The same kernel, forced onto each arm the host supports. Shapes
        // add the fit_least_squares normal-equations product (the O(Q·N²)
        // bulk of every surrogate fit, wide enough to fill 8-lane strips)
        // and the multilayer hidden product.
        const std::vector<Shape> vshapes = {
            {"fwd mnist (" + std::to_string(batch) + "x784)*(784x10)", false, batch, 784, 10,
             Op::None, Op::Transpose},
            {"grad mnist (10x" + std::to_string(batch) + ")*(" + std::to_string(batch) + "x784)",
             false, 10, batch, 784, Op::Transpose, Op::None},
            {"normal-eq mnist (784x1000)T*(1000x784)", false, 784, 1000, 784, Op::Transpose,
             Op::None},
            {"normal-eq cifar (3072x500)T*(500x3072)", false, 3072, 500, 3072, Op::Transpose,
             Op::None},
            {"mlp hidden (" + std::to_string(batch) + "x784)*(784x128)", false, batch, 784, 128,
             Op::None, Op::Transpose},
            {"square 256", false, 256, 256, 256, Op::None, Op::None},
        };
        std::vector<KernelVariant> variants = {KernelVariant::Portable};
        if (tensor::kernel_variant_available(KernelVariant::Avx2)) {
            variants.push_back(KernelVariant::Avx2);
        }
        const bool has_avx512 = tensor::kernel_variant_available(KernelVariant::Avx512);
        if (has_avx512) variants.push_back(KernelVariant::Avx512);
        const KernelVariant entry_variant = tensor::forced_kernel_variant();

        Table vtable({"Shape", "Portable GF/s", "AVX2 GF/s", "AVX-512 GF/s", "AVX-512/AVX2"});
        std::size_t avx512_wins = 0;
        for (const Shape& s : vshapes) {
            Rng rng(s.m * 17 + s.k * 3 + s.n);
            const Matrix A = Matrix::random_normal(rng, s.opA == Op::None ? s.m : s.k,
                                                   s.opA == Op::None ? s.k : s.m);
            const Matrix B = Matrix::random_normal(rng, s.opB == Op::None ? s.k : s.n,
                                                   s.opB == Op::None ? s.n : s.k);
            Matrix C(s.m, s.n, 0.0);

            rec.begin("variant: " + s.label);
            rec.add("m", static_cast<long long>(s.m));
            rec.add("k", static_cast<long long>(s.k));
            rec.add("n", static_cast<long long>(s.n));
            double gf_avx2 = 0.0, gf_avx512 = 0.0;
            vtable.begin_row();
            vtable.add(s.label);
            for (const KernelVariant v : variants) {
                tensor::set_kernel_variant(v);
                const double gf = gflops(
                    [&] { tensor::gemm(1.0, A, s.opA, B, s.opB, 0.0, C); }, s.m, s.k, s.n, reps);
                rec.add(std::string("gflops_") + tensor::to_string(v), gf);
                vtable.add(gf, 2);
                if (v == KernelVariant::Avx2) gf_avx2 = gf;
                if (v == KernelVariant::Avx512) gf_avx512 = gf;
            }
            tensor::set_kernel_variant(entry_variant);
            if (!tensor::kernel_variant_available(KernelVariant::Avx2)) vtable.add("-");
            if (!has_avx512) {
                vtable.add("-");
                vtable.add("-");
            } else {
                const double ratio = gf_avx512 / gf_avx2;
                rec.add("speedup_avx512_vs_avx2", ratio);
                vtable.add(ratio, 2);
                if (ratio >= 1.3) ++avx512_wins;
            }
        }
        std::cout << "\n## Kernel variants (forced via set_kernel_variant)\n\n" << vtable;
        if (!cli.boolean("smoke") && has_avx512 && avx512_wins < 2) {
            pass = false;
            std::cout << "FAIL: AVX-512 >= 1.3x over AVX2 on only " << avx512_wins
                      << " shapes (target >= 2)\n";
        }

        // ---- skinny-output series -------------------------------------------
        //
        // The 10-class head at the row counts the serving path issues: one
        // screened query (m = 1), coalesced flushes, and full batches, plus
        // the transpose-swapped trainer gradient (m = 784, n = 10, k = 32).
        // On the AVX-512 arm every one of these (9 <= n <= 16) runs the
        // skinny-output kernel; AVX2 and portable run the packed tiles. Per
        // arm: repeated trials of the per-call time (median, min, max) and
        // the host core count, so the selection rule — the skinny path only
        // where it is no slower than the packed tiles — is checked here.
        const std::size_t trials = cli.boolean("smoke") ? 3 : 15;
        std::vector<Shape> skinny;
        for (const std::size_t m : {1, 4, 8, 16, 32, 128, 2048}) {
            skinny.push_back({"skinny m=" + std::to_string(m) + " n=10 k=784", false, m, 784, 10,
                              Op::None, Op::None});
        }
        skinny.push_back({"skinny trainer gradient m=784 n=10 k=32 (A transposed)", false, 784, 32,
                          10, Op::Transpose, Op::None});
        Table stable({"Shape", "Portable us", "AVX2 us", "AVX-512 us", "AVX2/AVX-512"});
        std::size_t skinny_slower = 0;
        for (const Shape& s : skinny) {
            Rng rng(s.m * 13 + s.k * 5 + s.n);
            const Matrix A = Matrix::random_normal(rng, s.opA == Op::None ? s.m : s.k,
                                                   s.opA == Op::None ? s.k : s.m);
            const Matrix B = Matrix::random_normal(rng, s.k, s.n);
            Matrix C(s.m, s.n, 0.0);
            rec.begin(s.label);
            rec.add("m", static_cast<long long>(s.m));
            rec.add("k", static_cast<long long>(s.k));
            rec.add("n", static_cast<long long>(s.n));
            rec.add("cores", static_cast<long long>(cores));
            rec.add("trials", static_cast<long long>(trials));
            stable.begin_row();
            stable.add(s.label);
            double us_avx2 = 0.0, us_avx512 = 0.0;
            for (const KernelVariant v : variants) {
                tensor::set_kernel_variant(v);
                const Trials t = time_trials(
                    [&] { tensor::gemm(1.0, A, s.opA, B, s.opB, 0.0, C); }, s.m, s.k, s.n, trials);
                const std::string arm = tensor::to_string(v);
                rec.add("us_median_" + arm, t.median_us);
                rec.add("us_min_" + arm, t.min_us);
                rec.add("us_max_" + arm, t.max_us);
                rec.add("gflops_" + arm, t.gflops);
                stable.add(t.median_us, 3);
                if (v == KernelVariant::Avx2) us_avx2 = t.median_us;
                if (v == KernelVariant::Avx512) us_avx512 = t.median_us;
            }
            tensor::set_kernel_variant(entry_variant);
            if (!tensor::kernel_variant_available(KernelVariant::Avx2)) stable.add("-");
            if (!has_avx512) {
                stable.add("-");
                stable.add("-");
            } else {
                const double ratio = us_avx2 / us_avx512;
                rec.add("speedup_avx512_vs_avx2", ratio);
                stable.add(ratio, 2);
                if (ratio < 1.0) ++skinny_slower;
            }
        }
        std::cout << "\n## Skinny-output series (n = 10; " << trials << " trials, median us, "
                  << cores << " cores)\n\n"
                  << stable;
        if (!cli.boolean("smoke") && has_avx512 && skinny_slower > 0) {
            pass = false;
            std::cout << "FAIL: the skinny-output path is slower than the AVX2 packed tiles on "
                      << skinny_slower << " shapes (it must be no slower wherever it is picked)\n";
        }

        // ---- trainer hot loop: seed (fresh allocations, pre-PR kernel) vs
        //      the arena-backed path under the current dispatcher ------------
        //
        // Baseline = the verbatim pre-arena trainer loop on the kernel arm
        // the previous PR dispatched (AVX2 where available); candidate =
        // the shipped trainer with the workspace arena under Auto dispatch
        // (AVX-512 where available). The delta is this PR's whole trainer
        // path. A second column isolates the arena alone (same kernel,
        // arena on vs off).
        const KernelVariant seed_kernel =
            tensor::kernel_variant_available(KernelVariant::Avx2) ? KernelVariant::Avx2
                                                                  : KernelVariant::Portable;
        // Single-core containers are noisy at ~10 ms timings; best-of-7
        // keeps the recorded speedups within a few percent run to run.
        const std::size_t train_reps = cli.boolean("smoke") ? 2 : 7;
        const std::size_t train_epochs = cli.boolean("smoke") ? 1 : 3;
        struct TrainShape {
            std::string label;
            std::size_t samples, dim, hidden;  ///< hidden == 0: single layer
        };
        const std::vector<TrainShape> tshapes = {
            {"trainer mnist (2000x784 -> 10)", 2000, 784, 0},
            {"trainer cifar (600x3072 -> 10)", 600, 3072, 0},
            {"trainer mlp mnist (2000x784 -> 128 -> 10)", 2000, 784, 128},
        };
        Table ttable({"Trainer shape", "Seed s/epoch", "Arena s/epoch", "Arena-only x",
                      "Path speedup"});
        double best_path_speedup = 0.0;
        for (const TrainShape& ts : tshapes) {
            Rng rng(ts.samples + ts.dim);
            nn::TrainConfig tc;
            tc.epochs = train_epochs;
            tc.batch_size = 32;

            double sec_seed = 0.0, sec_arena = 0.0, sec_malloc = 0.0;
            auto best_of = [&](auto&& fn) {
                double best = 1e100;
                for (std::size_t r = 0; r < train_reps; ++r) {
                    WallTimer timer;
                    fn();
                    best = std::min(best, timer.seconds());
                }
                return best / static_cast<double>(tc.epochs);
            };

            if (ts.hidden == 0) {
                const Matrix X = Matrix::random_uniform(rng, ts.samples, ts.dim);
                const Matrix Y = Matrix::random_normal(rng, ts.samples, 10);
                tensor::set_kernel_variant(seed_kernel);
                sec_seed = best_of([&] {
                    Rng init(1);
                    nn::SingleLayerNet net(init, ts.dim, 10, nn::Activation::Linear,
                                           nn::Loss::Mse);
                    seedtrainer::train_regression(net, X, Y, tc);
                });
                tensor::set_kernel_variant(entry_variant);
                auto shipped = [&](bool arena) {
                    tc.arena = arena;
                    return best_of([&] {
                        Rng init(1);
                        nn::SingleLayerNet net(init, ts.dim, 10, nn::Activation::Linear,
                                               nn::Loss::Mse);
                        nn::train_regression(net, X, Y, tc);
                    });
                };
                sec_malloc = shipped(false);
                sec_arena = shipped(true);
            } else {
                Matrix X = Matrix::random_uniform(rng, ts.samples, ts.dim);
                std::vector<int> labels(ts.samples);
                for (auto& l : labels) l = static_cast<int>(rng.below(10));
                const data::Dataset ds(std::move(X), std::move(labels), 10, {1, ts.dim, 1});
                nn::MlpConfig mc;
                mc.layer_sizes = {ts.dim, ts.hidden, 10};
                tensor::set_kernel_variant(seed_kernel);
                sec_seed = best_of([&] {
                    Rng init(1);
                    nn::Mlp mlp(init, mc);
                    seedtrainer::train_mlp(mlp, ds, tc);
                });
                tensor::set_kernel_variant(entry_variant);
                auto shipped = [&](bool arena) {
                    tc.arena = arena;
                    return best_of([&] {
                        Rng init(1);
                        nn::Mlp mlp(init, mc);
                        nn::train_mlp(mlp, ds, tc);
                    });
                };
                sec_malloc = shipped(false);
                sec_arena = shipped(true);
            }

            const double arena_only = sec_malloc / sec_arena;
            const double path_speedup = sec_seed / sec_arena;
            best_path_speedup = std::max(best_path_speedup, path_speedup);

            ttable.begin_row();
            ttable.add(ts.label);
            ttable.add(sec_seed, 4);
            ttable.add(sec_arena, 4);
            ttable.add(arena_only, 2);
            ttable.add(path_speedup, 2);

            rec.begin(ts.label);
            rec.add("samples", static_cast<long long>(ts.samples));
            rec.add("dim", static_cast<long long>(ts.dim));
            rec.add("hidden", static_cast<long long>(ts.hidden));
            rec.add("batch_size", static_cast<long long>(tc.batch_size));
            rec.add("seed_kernel", tensor::to_string(seed_kernel));
            rec.add("seconds_per_epoch_seed", sec_seed);
            rec.add("seconds_per_epoch_malloc", sec_malloc);
            rec.add("seconds_per_epoch_arena", sec_arena);
            rec.add("speedup_arena_only", arena_only);
            rec.add("speedup_trainer_path", path_speedup);
        }
        std::cout << "\n## Trainer hot loop: seed loop (" << tensor::to_string(seed_kernel)
                  << ") vs arena-backed path (" << tensor::to_string(entry_variant) << ")\n\n"
                  << ttable;
        if (!cli.boolean("smoke") && has_avx512 && best_path_speedup < 1.2) {
            pass = false;
            std::cout << "FAIL: arena-backed trainer path best speedup "
                      << Table::format_number(best_path_speedup, 2) << "x (target >= 1.2x)\n";
        }

        // ---- surrogate-training step --------------------------------------
        //
        // Per-minibatch time of Eq. 9's surrogate fit at the extract
        // workload's shapes (784 -> 10, batches of 32, its epoch schedule
        // for each query budget Q, lambda 0 and 0.002): train_surrogate
        // (the AVX-512 step where it applies) against the composed
        // reference loop it must equal bit for bit. Repeated trials of a
        // whole fit, divided by its minibatch count.
        struct StepShape {
            std::size_t queries, epochs;
            double lambda;
        };
        const std::size_t step_trials = cli.boolean("smoke") ? 2 : 15;
        const std::vector<StepShape> step_shapes = {
            {256, 150, 0.0}, {256, 150, 0.002}, {1024, 39, 0.0}, {1024, 39, 0.002}};
        Table sstable({"Shape", "Step us", "Reference us", "Reference/Step"});
        std::size_t step_misses = 0;
        bool step_applies = false;
        for (const StepShape& ss : step_shapes) {
            Rng rng(ss.queries + 11);
            const Matrix W = Matrix::random_normal(rng, 10, 784);
            attack::QueryDataset q;
            q.inputs = Matrix::random_uniform(rng, ss.queries, 784);
            q.outputs = Matrix(ss.queries, 10, 0.0);
            tensor::gemm(1.0, q.inputs, Op::None, W, Op::Transpose, 0.0, q.outputs);
            q.power = tensor::matvec(q.inputs, tensor::column_abs_sums(W));
            attack::SurrogateConfig sc;
            sc.power_loss_weight = ss.lambda;
            sc.train.epochs = cli.boolean("smoke") ? 2 : ss.epochs;
            sc.train.batch_size = 32;
            sc.train.learning_rate = 0.01;
            sc.train.momentum = 0.9;
            sc.train.final_lr_fraction = 0.1;
            const double steps = static_cast<double>(sc.train.epochs * ((ss.queries + 31) / 32));
            step_applies = attack::avx512_surrogate_step_applies(784, 10, sc.train);

            const auto per_step_us = [&](auto&& fit) {
                fit();  // warm
                std::vector<double> us;
                for (std::size_t t = 0; t < step_trials; ++t) {
                    WallTimer timer;
                    fit();
                    us.push_back(timer.seconds() * 1e6 / steps);
                }
                std::sort(us.begin(), us.end());
                return us;
            };
            const std::vector<double> step =
                per_step_us([&] { (void)attack::train_surrogate(q, sc); });
            const std::vector<double> ref =
                per_step_us([&] { (void)attack::train_surrogate_reference(q, sc); });
            const double step_med = step[step.size() / 2], ref_med = ref[ref.size() / 2];
            const double ratio = ref_med / step_med;
            std::string label = "surrogate step 784->10 batch 32 Q=";
            label += std::to_string(ss.queries);
            label += " lambda=";
            label += Table::format_number(ss.lambda, 3);
            rec.begin(label);
            rec.add("queries", static_cast<long long>(ss.queries));
            rec.add("batch_size", 32ll);
            rec.add("lambda", ss.lambda);
            rec.add("epochs", static_cast<long long>(sc.train.epochs));
            rec.add("cores", static_cast<long long>(cores));
            rec.add("trials", static_cast<long long>(step_trials));
            rec.add("avx512_step", static_cast<long long>(step_applies));
            rec.add("us_median_step", step_med);
            rec.add("us_min_step", step.front());
            rec.add("us_max_step", step.back());
            rec.add("us_median_reference", ref_med);
            rec.add("us_min_reference", ref.front());
            rec.add("us_max_reference", ref.back());
            rec.add("speedup_step_vs_reference", ratio);
            sstable.begin_row();
            sstable.add(label);
            sstable.add(step_med, 2);
            sstable.add(ref_med, 2);
            sstable.add(ratio, 2);
            if (ratio < 1.5) ++step_misses;
        }
        std::cout << "\n## Surrogate-training step (per minibatch; " << step_trials
                  << " trials, median us, " << cores << " cores, "
                  << (step_applies ? "AVX-512 step" : "reference loop on both sides") << ")\n\n"
                  << sstable;
        if (!cli.boolean("smoke") && step_applies && step_misses > 0) {
            pass = false;
            std::cout << "FAIL: the AVX-512 surrogate step is under 1.5x the reference loop on "
                      << step_misses << " shapes\n";
        }

        const std::string out_path = cli.str("out");
        if (!rec.write(out_path)) {
            std::fprintf(stderr, "bench_gemm: cannot write %s\n", out_path.c_str());
            return 1;
        }
        std::cout << "\nResults written to " << out_path << "\n"
                  << "kernel vs PR-1 baseline on the paper shapes: "
                  << (pass ? "PASS" : "FAIL") << " (bar: >= "
                  << Table::format_number(gate, 1) << "x)\n";
        return pass ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_gemm: %s\n", e.what());
        return 1;
    }
}
