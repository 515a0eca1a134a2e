// Batched vs per-vector oracle query throughput on the synthetic-MNIST
// victim (784 inputs × 10 classes) — the measurement behind the batched
// Oracle API: query_labels / query_raw_batch / query_power_batch route
// through the crossbar's GEMM/matvec kernel layer instead of the
// per-vector simulation loop.
//
// Both paths stream *fresh* query windows drawn from a pool much larger
// than L2, so each batch size is measured at steady state. (Re-measuring
// one small batch over and over — what this bench did before — lets the
// batch stay cache-resident across repetitions and inflates small-batch
// throughput by ~50% relative to large batches, an artifact no real
// attacker ever sees.) Every measurement is repeated over kTrials trials,
// each timing the per-vector and batched passes back to back; the gates
// read the median of the per-trial speedups. Results are written to
// BENCH_oracle.json through the shared recorder.
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "record.hpp"
#include "xbarsec/common/cli.hpp"
#include "xbarsec/common/error.hpp"
#include "xbarsec/common/table.hpp"
#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/common/timer.hpp"
#include "xbarsec/core/victim.hpp"
#include "xbarsec/data/loaders.hpp"
#include "xbarsec/stats/descriptive.hpp"

using namespace xbarsec;

namespace {

/// Trials per measurement. One trial over the smoke pool lasts a few
/// milliseconds, and single-trial smoke runs of labels@256 spread from
/// 2.75× to 4.38× on a 4-vCPU VM; the median of five keeps one disturbed
/// trial from deciding a gate.
constexpr std::size_t kTrials = 5;

/// Median and quartiles of one quantity over the trials.
struct Spread {
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
};

Spread spread(const std::vector<double>& trials) {
    return {stats::quantile(trials, 0.5), stats::quantile(trials, 0.25),
            stats::quantile(trials, 0.75)};
}

/// Throughputs are medians over the trials; `speedup` is the median of
/// the per-trial speedups, each from two passes timed back to back.
struct Measurement {
    std::string query;
    std::size_t batch = 0;
    double scalar_qps = 0.0;
    double batched_qps = 0.0;
    Spread speedup;
};

/// Non-ideal (line_resistance > 0) series: the baseline is the retained
/// per-cell reference simulation — the per-vector fallback the batched
/// IR-drop kernel replaced.
struct NonIdealMeasurement {
    std::string query;
    std::size_t batch = 0;
    double fallback_qps = 0.0;  ///< per-vector reference simulation
    double scalar_qps = 0.0;    ///< vectorized per-vector path
    double batched_qps = 0.0;   ///< batched GEMM/rowwise-dot path
    Spread speedup_vs_fallback;
};

double seconds_for(const std::function<void()>& body, std::size_t reps) {
    WallTimer timer;
    for (std::size_t i = 0; i < reps; ++i) body();
    return timer.seconds();
}

/// Shared measurement protocol: one untimed warm-up pass (first-touch
/// faults, cache fills), then `reps` timed passes over `queries_per_pass`
/// queries. Every path in this bench — including the reference fallback —
/// is measured through this helper so the protocols cannot drift.
double qps_for(const std::function<void()>& pass, double queries_per_pass, std::size_t reps) {
    pass();  // warm
    return queries_per_pass * static_cast<double>(reps) / seconds_for(pass, reps);
}

/// One pass = every window of the pool queried once; `reps` passes per
/// measurement, so both paths touch pool_rows × reps fresh inputs.
Measurement measure(core::CrossbarOracle& oracle, const std::vector<tensor::Matrix>& windows,
                    const std::string& query, std::size_t reps) {
    Measurement m;
    m.query = query;
    m.batch = windows.front().rows();

    const auto scalar_pass = [&] {
        for (const tensor::Matrix& U : windows) {
            for (std::size_t r = 0; r < U.rows(); ++r) {
                if (query == "labels") {
                    (void)oracle.query_label(U.row(r));
                } else if (query == "raw") {
                    (void)oracle.query_raw(U.row(r));
                } else {
                    (void)oracle.query_power(U.row(r));
                }
            }
        }
    };
    const auto batched_pass = [&] {
        for (const tensor::Matrix& U : windows) {
            if (query == "labels") {
                (void)oracle.query_labels(U);
            } else if (query == "raw") {
                (void)oracle.query_raw_batch(U);
            } else {
                (void)oracle.query_power_batch(U);
            }
        }
    };

    const double queries = static_cast<double>(windows.size() * windows.front().rows());
    std::vector<double> scalar(kTrials), batched(kTrials), speedup(kTrials);
    for (std::size_t t = 0; t < kTrials; ++t) {
        scalar[t] = qps_for(scalar_pass, queries, reps);
        batched[t] = qps_for(batched_pass, queries, reps);
        speedup[t] = batched[t] / scalar[t];
    }
    m.scalar_qps = stats::quantile(scalar, 0.5);
    m.batched_qps = stats::quantile(batched, 0.5);
    m.speedup = spread(speedup);
    return m;
}

NonIdealMeasurement measure_nonideal(core::CrossbarOracle& oracle,
                                     const std::vector<tensor::Matrix>& windows,
                                     const std::string& query, std::size_t reps) {
    NonIdealMeasurement m;
    m.query = query;
    m.batch = windows.front().rows();
    const xbar::Crossbar& crossbar = oracle.hardware_for_evaluation().crossbar();

    const auto fallback_pass = [&] {
        for (const tensor::Matrix& U : windows) {
            for (std::size_t r = 0; r < U.rows(); ++r) {
                if (query == "power") {
                    (void)crossbar.total_current_reference(U.row(r));
                } else {
                    (void)crossbar.output_currents_reference(U.row(r));
                }
            }
        }
    };
    const auto scalar_pass = [&] {
        for (const tensor::Matrix& U : windows) {
            for (std::size_t r = 0; r < U.rows(); ++r) {
                if (query == "power") {
                    (void)oracle.query_power(U.row(r));
                } else {
                    (void)oracle.query_label(U.row(r));
                }
            }
        }
    };
    const auto batched_pass = [&] {
        for (const tensor::Matrix& U : windows) {
            if (query == "power") {
                (void)oracle.query_power_batch(U);
            } else {
                (void)oracle.query_labels(U);
            }
        }
    };

    const double queries = static_cast<double>(windows.size() * windows.front().rows());
    std::vector<double> fallback(kTrials), scalar(kTrials), batched(kTrials), speedup(kTrials);
    for (std::size_t t = 0; t < kTrials; ++t) {
        // The reference pass is ~2 orders slower; one timed rep bounds
        // its runtime (it still gets qps_for's untimed warm-up pass, so
        // the speedup gate compares steady state against steady state).
        fallback[t] = qps_for(fallback_pass, queries, 1);
        scalar[t] = qps_for(scalar_pass, queries, reps);
        batched[t] = qps_for(batched_pass, queries, reps);
        speedup[t] = batched[t] / fallback[t];
    }
    m.fallback_qps = stats::quantile(fallback, 0.5);
    m.scalar_qps = stats::quantile(scalar, 0.5);
    m.batched_qps = stats::quantile(batched, 0.5);
    m.speedup_vs_fallback = spread(speedup);
    return m;
}

}  // namespace

int main(int argc, char** argv) {
    Cli cli("bench_oracle_batch — batched vs per-vector oracle query throughput");
    cli.flag("batches", "64,256,1024", "batch sizes to measure");
    cli.flag("pool", "8192", "rows in the streamed query pool (>> L2)");
    cli.flag("reps", "4", "passes over the pool per measurement");
    cli.flag("train", "2000", "victim training samples");
    cli.flag("epochs", "6", "victim training epochs");
    cli.flag("threads", "0", "worker threads for the batched path (0 = serial)");
    cli.flag("out", "BENCH_oracle.json", "JSON results path");
    cli.flag("smoke", "false", "tiny configuration for CI smoke runs");
    try {
        if (!cli.parse(argc, argv)) return 0;

        data::LoadOptions load;
        load.train_count = static_cast<std::size_t>(cli.integer("train"));
        load.test_count = 400;
        std::vector<long long> batches = cli.integer_list("batches");
        for (const long long batch : batches) {
            if (batch < 1) throw ConfigError("--batches entries must be >= 1");
        }
        std::size_t pool_rows = static_cast<std::size_t>(cli.integer("pool"));
        std::size_t reps = static_cast<std::size_t>(cli.integer("reps"));
        if (reps < 1) throw ConfigError("--reps must be >= 1");
        const bool smoke = cli.boolean("smoke");
        const std::size_t threads = static_cast<std::size_t>(cli.integer("threads"));
        core::VictimConfig config = core::VictimConfig::defaults(core::OutputConfig::softmax_ce());
        config.train.epochs = static_cast<std::size_t>(cli.integer("epochs"));
        if (smoke) {
            load.train_count = 400;
            load.test_count = 120;
            batches = {64, 256};
            pool_rows = 1024;
            reps = 2;
            config.train.epochs = 2;
        }

        const data::DataSplit split = data::load_mnist_like(load);
        const core::TrainedVictim victim = core::train_victim(split, config);
        core::CrossbarOracle oracle = core::deploy_victim(victim.net, config);

        // The non-ideal deployment at the fig3 shape: IR drop engaged, so
        // every batched query runs the attenuated-conductance kernel that
        // replaced the per-vector fallback.
        constexpr double kLineResistance = 50.0;
        core::VictimConfig nonideal_config = config;
        nonideal_config.nonideal.line_resistance = kLineResistance;
        core::CrossbarOracle nonideal_oracle = core::deploy_victim(victim.net, nonideal_config);

        std::unique_ptr<ThreadPool> pool;
        if (threads > 0) {
            pool = std::make_unique<ThreadPool>(threads);
            oracle.set_thread_pool(pool.get());
            nonideal_oracle.set_thread_pool(pool.get());
        }

        Table table({"Query", "Batch", "Per-vector q/s", "Batched q/s", "Speedup"});
        Table nonideal_table({"Query", "Batch", "Fallback q/s", "Per-vector q/s", "Batched q/s",
                              "Speedup vs fallback"});
        bench::BenchRecorder rec(
            "oracle_batch", "synthetic-mnist-784x10 victim, streamed pool of " +
                                std::to_string(pool_rows) + " rows, " +
                                std::to_string(threads) + " worker threads");
        std::vector<Measurement> results;
        std::vector<NonIdealMeasurement> nonideal_results;
        Rng rng(7);
        const tensor::Matrix query_pool =
            tensor::Matrix::random_uniform(rng, pool_rows, oracle.inputs());

        for (const long long batch : batches) {
            const std::size_t b = static_cast<std::size_t>(batch);
            if (b > pool_rows) throw ConfigError("--pool must be >= every batch size");
            // Pre-sliced consecutive windows; both paths stream these.
            std::vector<tensor::Matrix> windows;
            for (std::size_t lo = 0; lo + b <= pool_rows; lo += b) {
                tensor::Matrix U(b, oracle.inputs());
                for (std::size_t r = 0; r < b; ++r) {
                    const auto src = query_pool.row_span(lo + r);
                    auto dst = U.row_span(r);
                    std::copy(src.begin(), src.end(), dst.begin());
                }
                windows.push_back(std::move(U));
            }
            for (const char* query : {"labels", "raw", "power"}) {
                const Measurement m = measure(oracle, windows, query, reps);
                results.push_back(m);
                table.begin_row();
                table.add(m.query);
                table.add(static_cast<long long>(m.batch));
                table.add(m.scalar_qps, 0);
                table.add(m.batched_qps, 0);
                table.add(m.speedup.median, 2);
                rec.begin(std::string(query) + "@" + std::to_string(m.batch));
                rec.add("query", m.query);
                rec.add("batch", static_cast<long long>(m.batch));
                rec.add("trials", kTrials);
                rec.add("scalar_qps", m.scalar_qps);
                rec.add("batched_qps", m.batched_qps);
                rec.add("speedup", m.speedup.median);
                rec.add("speedup_q1", m.speedup.q1);
                rec.add("speedup_q3", m.speedup.q3);
            }
            for (const char* query : {"labels", "power"}) {
                const NonIdealMeasurement m =
                    measure_nonideal(nonideal_oracle, windows, query, reps);
                nonideal_results.push_back(m);
                nonideal_table.begin_row();
                nonideal_table.add(m.query);
                nonideal_table.add(static_cast<long long>(m.batch));
                nonideal_table.add(m.fallback_qps, 0);
                nonideal_table.add(m.scalar_qps, 0);
                nonideal_table.add(m.batched_qps, 0);
                nonideal_table.add(m.speedup_vs_fallback.median, 2);
                rec.begin(std::string(query) + "-nonideal@" + std::to_string(m.batch));
                rec.add("query", m.query);
                rec.add("batch", static_cast<long long>(m.batch));
                rec.add("line_resistance", kLineResistance);
                rec.add("trials", kTrials);
                rec.add("fallback_qps", m.fallback_qps);
                rec.add("scalar_qps", m.scalar_qps);
                rec.add("batched_qps", m.batched_qps);
                rec.add("speedup_vs_fallback", m.speedup_vs_fallback.median);
                rec.add("speedup_vs_fallback_q1", m.speedup_vs_fallback.q1);
                rec.add("speedup_vs_fallback_q3", m.speedup_vs_fallback.q3);
            }
        }

        std::cout << "\n## Batched oracle query throughput (784×10 synthetic-MNIST victim)\n\n"
                  << table
                  << "\n## Non-ideal deployment (line_resistance = "
                  << Table::format_number(kLineResistance, 0)
                  << " ohm): batched kernel vs the per-vector reference fallback\n\n"
                  << nonideal_table;

        const std::string out_path = cli.str("out");
        if (!rec.write(out_path)) {
            std::fprintf(stderr, "bench_oracle_batch: cannot write %s\n", out_path.c_str());
            return 1;
        }
        std::cout << "\nResults written to " << out_path << "\n";

        // Acceptance gates, enforced (non-zero exit) so the CI smoke run
        // fails loudly when the fast path regresses. Each reads the median
        // speedup over the trials:
        //   * labels@256 batched >= 3x the per-vector path;
        //   * batched power qps at the largest batch within 15% of the
        //     smallest (the batch-1024 falloff this bench used to show was
        //     a hot-cache artifact; with streamed windows the batch size
        //     must not matter). Full runs only: a smoke measurement is
        //     ~1 ms of wall time, where scheduler jitter alone exceeds
        //     the 15% band.
        int exit_code = 0;
        for (const Measurement& m : results) {
            if (m.query == "labels" && m.batch == 256) {
                const bool pass = m.speedup.median >= 3.0;
                std::cout << "labels@256 median speedup: "
                          << Table::format_number(m.speedup.median, 2)
                          << (pass ? " (PASS, >= 3x)" : " (FAIL, below the 3x target)") << "\n";
                if (!pass) exit_code = 1;
            }
        }
        //   * non-ideal labels@256 batched >= 4x the per-vector reference
        //     fallback (PR-3 acceptance: the IR-drop path must not fall
        //     back to per-vector simulation).
        for (const NonIdealMeasurement& m : nonideal_results) {
            if (m.query == "labels" && m.batch == 256) {
                const bool pass = m.speedup_vs_fallback.median >= 4.0;
                std::cout << "labels-nonideal@256 median speedup vs fallback: "
                          << Table::format_number(m.speedup_vs_fallback.median, 2)
                          << (pass ? " (PASS, >= 4x)" : " (FAIL, below the 4x target)") << "\n";
                if (!pass) exit_code = 1;
            }
        }
        double power_small = 0.0, power_large = 0.0;
        std::size_t small_b = 0, large_b = 0;
        for (const Measurement& m : results) {
            if (m.query != "power") continue;
            if (small_b == 0 || m.batch < small_b) {
                small_b = m.batch;
                power_small = m.batched_qps;
            }
            if (m.batch > large_b) {
                large_b = m.batch;
                power_large = m.batched_qps;
            }
        }
        if (!smoke && small_b != 0 && large_b != small_b) {
            const double ratio = power_large / power_small;
            const bool pass = ratio >= 0.85;
            std::cout << "power@" << large_b << " vs power@" << small_b
                      << " batched qps ratio: " << Table::format_number(ratio, 3)
                      << (pass ? " (PASS, within 15%)" : " (FAIL, > 15% falloff)") << "\n";
            if (!pass) exit_code = 1;
        }
        return exit_code;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_oracle_batch: %s\n", e.what());
        return 1;
    }
}
