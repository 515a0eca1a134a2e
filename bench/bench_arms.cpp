// Arms-race bench: the full adaptive-attacker strategy × defense-policy
// matrix on one trained victim, via the service/mnist/arms-race registry
// scenario.
//
// Rows of BENCH_arms.json are cells of the matrix: each records the
// extraction fidelity the strategy reached under the policy, what the
// campaign cost the attacker (wall-clock, refusals, sessions burned),
// and what the policy cost the benign tenants sharing the deployment
// (refused queries, answered throughput).
//
// Acceptance gates (full runs; recorded but not enforced with --smoke):
//   1. the token bucket alone measurably cuts the fixed attacker's
//      fidelity: fixed@rate + 0.05 < fixed@open;
//   2. adapting to the limiter recovers samples: the best adaptive
//      strategy's collected count at @rate exceeds the fixed attacker's;
//   3. the suspicion-scaled defense holds the line: the throttle
//      attacker's fidelity under the full rate+adaptive policy stays
//      below the fixed-attacker/static-defense baseline (fixed@open).
// The rotate/spread rows measure how far session rotation and probe
// spreading claw back — the open end of the arms race, reported not
// gated.
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "record.hpp"
#include "xbarsec/common/cli.hpp"
#include "xbarsec/common/error.hpp"
#include "xbarsec/common/log.hpp"
#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/common/timer.hpp"
#include "xbarsec/core/report.hpp"
#include "xbarsec/core/scenario.hpp"

using namespace xbarsec;

namespace {

double metric(const core::ScenarioOutcome& outcome, const std::string& key) {
    const auto it = outcome.metrics.find(key);
    if (it == outcome.metrics.end()) throw ConfigError("missing arms-race metric: " + key);
    return it->second;
}

}  // namespace

int main(int argc, char** argv) {
    Cli cli("bench_arms — adaptive attacker vs adaptive defense: strategy x policy matrix "
            "with benign-tenant cost");
    cli.flag("out", "BENCH_arms.json", "JSON results path");
    cli.flag("train", "", "override training samples");
    cli.flag("test", "", "override test samples");
    cli.flag("epochs", "", "override victim training epochs");
    cli.flag("queries", "", "override attacker samples per cell");
    cli.flag("benign", "", "override benign queries per client");
    cli.flag("seed", "", "override the base seed");
    cli.flag("threads", "0", "worker threads (0 = hardware)");
    cli.flag("smoke", "false", "tiny configuration for CI smoke runs (gates recorded, not enforced)");
    if (!cli.parse(argc, argv)) return 0;

    core::ScenarioSpec spec = core::builtin_scenarios().get("service/mnist/arms-race");
    const bool smoke = cli.boolean("smoke");
    if (smoke) core::apply_smoke(spec);  // first, so explicit flags win
    core::ArmsRaceOptions& ar = std::get<core::ArmsRaceOptions>(spec.experiment);
    if (cli.provided("train")) spec.load.train_count = static_cast<std::size_t>(cli.integer("train"));
    if (cli.provided("test")) spec.load.test_count = static_cast<std::size_t>(cli.integer("test"));
    if (cli.provided("epochs")) {
        spec.victim.train.epochs = static_cast<std::size_t>(cli.integer("epochs"));
    }
    if (cli.provided("queries")) {
        ar.attacker.planned_queries = static_cast<std::size_t>(cli.integer("queries"));
    }
    if (cli.provided("benign")) {
        ar.benign_queries = static_cast<std::size_t>(cli.integer("benign"));
    }
    if (cli.provided("seed")) {
        const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
        spec.load.seed = seed;
        ar.seed = seed + 77;
    }

    std::size_t threads = static_cast<std::size_t>(cli.integer("threads"));
    if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
    ThreadPool pool(threads);
    core::ScenarioRunner runner(&pool);

    WallTimer timer;
    const core::ScenarioOutcome outcome = runner.run(spec);
    const double total_s = timer.seconds();

    std::cout << "\n## Arms race — " << outcome.label << "\n";
    for (const auto& [name, table] : outcome.tables) std::cout << "\n" << table;
    std::cout << "\ntotal wall time: " << total_s << " s\n";

    bench::BenchRecorder recorder(
        "arms", "strategy x policy matrix, " + std::to_string(threads) + " worker threads, " +
                    std::to_string(ar.attacker.planned_queries) +
                    " attacker samples/cell" + (smoke ? ", smoke" : ""));
    for (const attack::AttackerStrategy strategy : ar.strategies) {
        for (const core::ArmsDefense& defense : ar.defenses) {
            const std::string key = std::string(attack::to_string(strategy)) + "_" + defense.name;
            recorder.begin(key);
            recorder.add("strategy", attack::to_string(strategy));
            recorder.add("defense", defense.name);
            recorder.add("fidelity", metric(outcome, "fidelity_" + key));
            recorder.add("collected", metric(outcome, "collected_" + key));
            recorder.add("refused", metric(outcome, "refused_" + key));
            recorder.add("raw_denied", metric(outcome, "raw_denied_" + key));
            recorder.add("sessions", metric(outcome, "sessions_" + key));
            recorder.add("attacker_wall_s", metric(outcome, "attacker_wall_s_" + key));
            recorder.add("max_flagged_fraction", metric(outcome, "max_flagged_" + key));
            recorder.add("benign_answered", metric(outcome, "benign_answered_" + key));
            recorder.add("benign_refused", metric(outcome, "benign_refused_" + key));
            recorder.add("benign_qps", metric(outcome, "benign_qps_" + key));
        }
    }
    recorder.begin("summary");
    recorder.add("victim_test_accuracy", metric(outcome, "victim_test_accuracy"));
    recorder.add("total_wall_s", total_s);

    const std::string out = cli.str("out");
    if (!recorder.write(out)) {
        std::cerr << "failed to write " << out << "\n";
        return 1;
    }
    std::cout << "wrote " << out << "\n";

    // Gates (see file header). Smoke runs are too small for stable
    // fidelity estimates, so they record but do not enforce.
    const double fixed_open = metric(outcome, "fidelity_fixed_open");
    const double fixed_rate = metric(outcome, "fidelity_fixed_rate");
    const double throttle_full = metric(outcome, "fidelity_throttle_rate+adaptive");
    double best_adaptive_rate_collected = 0.0;
    for (const char* s : {"throttle", "rotate", "spread"}) {
        best_adaptive_rate_collected = std::max(
            best_adaptive_rate_collected, metric(outcome, std::string("collected_") + s + "_rate"));
    }
    const double fixed_rate_collected = metric(outcome, "collected_fixed_rate");

    bool ok = true;
    if (!(fixed_rate + 0.05 < fixed_open)) {
        std::cerr << "GATE: rate limiting did not measurably cut the fixed attacker (fixed@rate "
                  << fixed_rate << " vs fixed@open " << fixed_open << ")\n";
        ok = false;
    }
    if (!(best_adaptive_rate_collected > fixed_rate_collected)) {
        std::cerr << "GATE: no adaptive strategy recovered samples under the rate limit ("
                  << best_adaptive_rate_collected << " vs fixed " << fixed_rate_collected << ")\n";
        ok = false;
    }
    if (!(throttle_full < fixed_open)) {
        std::cerr << "GATE: adaptive defense did not hold: throttle@rate+adaptive " << throttle_full
                  << " >= fixed@open " << fixed_open << "\n";
        ok = false;
    }
    if (!ok && !smoke) return 1;
    if (!ok) std::cout << "(smoke run: gate failures recorded, not enforced)\n";
    std::cout << "arms-race gates " << (ok ? "passed" : "skipped") << "\n";
    return 0;
}
