// Microbenchmarks: throughput of the simulator's hot paths at the paper's
// array sizes (10×784 MNIST, 10×3072 CIFAR). Hand-rolled harness (no
// external benchmark dependency) emitting BENCH_micro.json through the
// shared recorder.
//
// A concurrency series times the per-request work that submitting
// threads do on one shared deployment, at 1, 2 and 4 threads (repeated
// trials, median/min/max, host core count): the detector screen on one
// deployed crossbar, each thread with its own DetectorScreen as sessions
// have, and a label cache hit through OracleService with every admission
// tier on, each thread with its own session. Every atomic those threads
// write per request (the crossbar's measurement counter, the screen and
// session counters, the cache's hit counter) is in that work. The series
// records; it gates nothing.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "record.hpp"
#include "xbarsec/common/cli.hpp"
#include "xbarsec/common/rng.hpp"
#include "xbarsec/common/table.hpp"
#include "xbarsec/common/timer.hpp"
#include "xbarsec/core/policy.hpp"
#include "xbarsec/core/service.hpp"
#include "xbarsec/nn/trainer.hpp"
#include "xbarsec/sidechannel/detector.hpp"
#include "xbarsec/sidechannel/probe.hpp"
#include "xbarsec/tensor/gemm.hpp"
#include "xbarsec/tensor/ops.hpp"
#include "xbarsec/xbar/crossbar.hpp"

using namespace xbarsec;

namespace {

xbar::Crossbar make_crossbar(std::size_t rows, std::size_t cols) {
    Rng rng(1);
    xbar::DeviceSpec spec;
    spec.g_on_max = 100e-6;
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, rows, cols);
    return xbar::Crossbar(map_weights(W, spec));
}

struct Harness {
    Table table{{"Benchmark", "ns/op", "Mitems/s"}};
    bench::BenchRecorder rec;
    double min_seconds;
    std::size_t reps;

    Harness(std::string setup, double min_secs, std::size_t reps_)
        : rec("micro", std::move(setup)), min_seconds(min_secs), reps(reps_) {}

    /// Times `body` until it has run for min_seconds, `reps` times, and
    /// records the best repetition (noise-robust on a shared container).
    void run(const std::string& label, std::size_t items_per_op,
             const std::function<void()>& body) {
        body();  // warm
        // Calibrate the inner loop count to the target wall time.
        std::size_t inner = 1;
        for (;;) {
            WallTimer timer;
            for (std::size_t i = 0; i < inner; ++i) body();
            if (timer.seconds() >= min_seconds || inner >= (1u << 24)) break;
            inner *= 4;
        }
        double best_ns = 1e30;
        for (std::size_t r = 0; r < reps; ++r) {
            WallTimer timer;
            for (std::size_t i = 0; i < inner; ++i) body();
            best_ns = std::min(best_ns, timer.seconds() * 1e9 / static_cast<double>(inner));
        }
        const double mitems = static_cast<double>(items_per_op) / best_ns * 1e3;
        table.begin_row();
        table.add(label);
        table.add(best_ns, 0);
        table.add(mitems, 1);
        rec.begin(label);
        rec.add("ns_per_op", best_ns);
        rec.add("items_per_op", static_cast<long long>(items_per_op));
        rec.add("mitems_per_s", mitems);
    }
};

/// One trial of `threads` threads running body(t) at once: the slowest
/// thread's wall time, in µs per item of the `items` each thread did.
double concurrent_us_per_item(std::size_t threads, std::size_t items,
                              const std::function<void(std::size_t)>& body) {
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<double> seconds(threads, 0.0);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) {
            }
            WallTimer timer;
            body(t);
            seconds[t] = timer.seconds();
        });
    }
    while (ready.load() < threads) std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (std::thread& th : pool) th.join();
    return *std::max_element(seconds.begin(), seconds.end()) * 1e6 / static_cast<double>(items);
}

struct Spread {
    double median = 0.0, min = 0.0, max = 0.0;
};

Spread spread_of(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return {v[v.size() / 2], v.front(), v.back()};
}

/// The concurrency series (see the file comment).
void run_concurrency_series(bench::BenchRecorder& rec, std::size_t trials,
                            std::size_t rows_per_trial, std::size_t hits_per_trial) {
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    Rng rng(11);
    Rng net_rng(7);
    const nn::SingleLayerNet net(net_rng, 784, 10, nn::Activation::Linear, nn::Loss::Mse);
    xbar::DeviceSpec spec;
    spec.g_on_max = 100e-6;
    tensor::Matrix clean = tensor::Matrix::random_uniform(rng, 256, 784);
    std::vector<int> labels(clean.rows());
    for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<int>(i % 10);
    const data::Dataset enrol(std::move(clean), std::move(labels), 10, data::ImageShape{28, 28, 1});
    // Half clean rows, half amplitude-6 probe rows, as tenant-mix mixes them.
    tensor::Matrix rows(64, 784);
    for (std::size_t r = 0; r < rows.rows(); ++r) {
        const double amplitude = r % 2 == 0 ? 1.0 : 6.0;
        for (double& x : rows.row_span(r)) x = rng.uniform(0.0, amplitude);
    }

    Table table({"Series", "threads", "median us", "min us", "max us"});
    const auto record = [&](const std::string& series, std::size_t threads,
                            const std::vector<double>& us) {
        const Spread sp = spread_of(us);
        rec.begin(series + "/threads=" + std::to_string(threads));
        rec.add("threads", threads);
        rec.add("cores", static_cast<long long>(cores));
        rec.add("trials", trials);
        rec.add("us_median", sp.median);
        rec.add("us_min", sp.min);
        rec.add("us_max", sp.max);
        table.begin_row();
        table.add(series);
        table.add(static_cast<double>(threads), 0);
        table.add(sp.median, 3);
        table.add(sp.min, 3);
        table.add(sp.max, 3);
    };
    constexpr std::size_t kThreads[] = {1, 2, 4};

    core::CrossbarOracle backend(xbar::CrossbarNetwork(net, spec));
    const sidechannel::CurrentSignatureDetector detector(backend.hardware_for_evaluation(), enrol);
    std::vector<std::unique_ptr<core::DetectorScreen>> screens;
    for (std::size_t t = 0; t < 4; ++t) {
        screens.push_back(std::make_unique<core::DetectorScreen>(detector, false));
    }
    // Thread counts alternate trial by trial, so a stretch of host load
    // lands on all three alike instead of on one.
    std::vector<double> screen_trials[5];
    for (std::size_t k = 0; k < trials; ++k) {
        for (const std::size_t threads : kThreads) {
            screen_trials[threads].push_back(
                concurrent_us_per_item(threads, rows_per_trial, [&](std::size_t t) {
                    for (std::size_t i = 0; i < rows_per_trial; ++i) {
                        (void)screens[t]->screen(rows.row_span(i % rows.rows()));
                    }
                }));
        }
    }
    for (const std::size_t threads : kThreads) {
        record("detector_screen_shared_xbar/784", threads, screen_trials[threads]);
    }

    core::ServiceConfig config;
    config.cache.enabled = true;
    config.attribution.enabled = true;
    core::OracleService service(backend, config);
    std::vector<core::Session> sessions;
    for (std::size_t t = 0; t < 4; ++t) {
        core::SessionConfig tenant;
        tenant.detector = &detector;
        tenant.adaptive = core::AdaptivePolicy::escalate_at(0.2, 4.0);
        tenant.source = 1000 + t;
        sessions.push_back(service.open_session(tenant));
        (void)sessions.back().submit_label(enrol.input(2 * t)).get();  // fill the entry
    }
    std::vector<double> hit_trials[5];
    for (std::size_t k = 0; k < trials; ++k) {
        for (const std::size_t threads : kThreads) {
            hit_trials[threads].push_back(
                concurrent_us_per_item(threads, hits_per_trial, [&](std::size_t t) {
                    for (std::size_t i = 0; i < hits_per_trial; ++i) {
                        (void)sessions[t].submit_label(enrol.input(2 * t)).get();
                    }
                }));
        }
    }
    for (const std::size_t threads : kThreads) {
        record("service_label_hit_all_tiers/784", threads, hit_trials[threads]);
    }
    std::cout << "\n## Concurrency series (" << trials << " trials, us per row or request, "
              << cores << " cores)\n\n"
              << table;
}

}  // namespace

int main(int argc, char** argv) {
    Cli cli("bench_micro — hot-path microbenchmarks at the paper's array sizes");
    cli.flag("min-time", "0.05", "seconds each measurement must accumulate");
    cli.flag("reps", "3", "repetitions per measurement (best-of)");
    cli.flag("out", "BENCH_micro.json", "JSON results path");
    cli.flag("smoke", "false", "tiny configuration for CI smoke runs");
    try {
        if (!cli.parse(argc, argv)) return 0;
        double min_time = std::stod(cli.str("min-time"));
        std::size_t reps = static_cast<std::size_t>(cli.integer("reps"));
        if (cli.boolean("smoke")) {
            min_time = 0.01;
            reps = 1;
        }

        Harness h("paper-size arrays, best-of-" + std::to_string(reps), min_time, reps);
        Rng rng(2);

        for (const std::size_t cols : {std::size_t{784}, std::size_t{3072}}) {
            const xbar::Crossbar xbar = make_crossbar(10, cols);
            const tensor::Vector u = tensor::Vector::random_uniform(rng, cols);
            const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 64, cols);
            const std::string suffix = "/" + std::to_string(cols);

            h.run("crossbar_mvm" + suffix, 10 * cols, [&] {
                volatile double sink = xbar.mvm(u)[0];
                (void)sink;
            });
            h.run("crossbar_mvm_batch64" + suffix, 64 * 10 * cols, [&] {
                volatile double sink = xbar.mvm_batch(U)(0, 0);
                (void)sink;
            });
            h.run("crossbar_total_current" + suffix, 10 * cols, [&] {
                volatile double sink = xbar.total_current(u);
                (void)sink;
            });
            h.run("crossbar_total_current_batch64" + suffix, 64 * cols, [&] {
                volatile double sink = xbar.total_current_batch(U)[0];
                (void)sink;
            });
            h.run("full_power_probe" + suffix, cols, [&] {
                volatile double sink = sidechannel::probe_columns(xbar).conductance_sums[0];
                (void)sink;
            });
        }

        for (const std::size_t n : {std::size_t{64}, std::size_t{256}}) {
            const tensor::Matrix A = tensor::Matrix::random_normal(rng, n, n);
            const tensor::Matrix B = tensor::Matrix::random_normal(rng, n, n);
            tensor::Matrix C(n, n, 0.0);
            h.run("gemm_square/" + std::to_string(n), 2 * n * n * n, [&] {
                tensor::gemm(1.0, A, tensor::Op::None, B, tensor::Op::None, 0.0, C);
            });
        }

        {
            // One minibatch forward pass of the MNIST-scale single layer —
            // the inner loop of every Figure-5 surrogate fit.
            Rng net_rng(5);
            nn::SingleLayerNet net(net_rng, 784, 10, nn::Activation::Linear, nn::Loss::Mse);
            const tensor::Matrix X = tensor::Matrix::random_uniform(rng, 32, 784);
            h.run("batch_forward_32x784", 32 * 784 * 10, [&] {
                volatile double sink = net.layer().forward_batch(X)(0, 0);
                (void)sink;
            });

            // The surrogate's power model (Eq. 9's p̂) reduces to this kernel.
            const tensor::Matrix W = tensor::Matrix::random_normal(rng, 10, 3072);
            h.run("column_abs_sums_10x3072", 10 * 3072, [&] {
                volatile double sink = tensor::column_abs_sums(W)[0];
                (void)sink;
            });
        }

        std::cout << "\n## Microbenchmarks\n\n" << h.table;

        if (cli.boolean("smoke")) {
            run_concurrency_series(h.rec, 3, 256, 256);
        } else {
            run_concurrency_series(h.rec, 15, 8192, 8192);
        }
        const std::string out_path = cli.str("out");
        if (!h.rec.write(out_path)) {
            std::fprintf(stderr, "bench_micro: cannot write %s\n", out_path.c_str());
            return 1;
        }
        std::cout << "\nResults written to " << out_path << "\n";
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_micro: %s\n", e.what());
        return 1;
    }
}
