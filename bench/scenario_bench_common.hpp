// Shared driver for the scenario-registry benches: every figure/table
// bench is the same loop — select registry entries by prefix, apply CLI
// overrides, run through core::ScenarioRunner, print and persist the
// outcome. New workloads are registry entries, not new translation units.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <variant>

#include "record.hpp"
#include "xbarsec/common/cli.hpp"
#include "xbarsec/common/log.hpp"
#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/common/timer.hpp"
#include "xbarsec/core/report.hpp"
#include "xbarsec/core/scenario.hpp"

namespace xbarsec::benchscenario {

inline void register_standard_flags(Cli& cli) {
    cli.flag("out", "", "JSON results path (default BENCH_<bench>.json)");
    cli.flag("train", "", "override training samples");
    cli.flag("test", "", "override test samples");
    cli.flag("epochs", "", "override victim training epochs");
    cli.flag("runs", "", "override independent runs (fig5/table1)");
    cli.flag("eval", "", "override evaluation subsample (fig4/fig5; 0 = all)");
    cli.flag("queries", "", "override the fig5 query-count sweep (comma list)");
    cli.flag("lambdas", "", "override the fig5 power-loss weight sweep (comma list)");
    cli.flag("eps", "", "override the fig5 FGSM strength");
    cli.flag("seed", "", "override the base seed");
    cli.flag("data-dir", "", "directory with real MNIST/CIFAR files (optional)");
    cli.flag("threads", "0", "worker threads (0 = hardware)");
    cli.flag("ascii", "true", "print ASCII heat maps (fig3 scenarios)");
    cli.flag("smoke", "false", "tiny configuration for CI smoke runs");
}

/// Applies the CLI overrides. --smoke shrinks the spec first, so explicit
/// flags win over its sizes. Experiment flags (--runs, --eval, --queries,
/// --lambdas, --eps, the experiment seed) change only the options the spec
/// holds.
inline void apply_overrides(core::ScenarioSpec& spec, const Cli& cli) {
    if (cli.boolean("smoke")) core::apply_smoke(spec);
    auto* fig4 = std::get_if<core::Fig4Options>(&spec.experiment);
    auto* fig5 = std::get_if<core::Fig5Options>(&spec.experiment);
    auto* table1 = std::get_if<core::Table1Options>(&spec.experiment);
    if (cli.provided("train")) spec.load.train_count = static_cast<std::size_t>(cli.integer("train"));
    if (cli.provided("test")) spec.load.test_count = static_cast<std::size_t>(cli.integer("test"));
    if (cli.provided("epochs")) {
        spec.victim.train.epochs = static_cast<std::size_t>(cli.integer("epochs"));
    }
    if (cli.provided("runs")) {
        const auto runs = static_cast<std::size_t>(cli.integer("runs"));
        if (fig5 != nullptr) fig5->runs = runs;
        if (table1 != nullptr) table1->runs = runs;
    }
    if (cli.provided("eval")) {
        const auto eval = static_cast<std::size_t>(cli.integer("eval"));
        if (fig4 != nullptr) fig4->eval_limit = eval;
        if (fig5 != nullptr) fig5->eval_limit = eval;
    }
    if (fig5 != nullptr && cli.provided("queries")) {
        fig5->query_counts.clear();
        for (const long long q : cli.integer_list("queries")) {
            fig5->query_counts.push_back(static_cast<std::size_t>(q));
        }
    }
    if (fig5 != nullptr && cli.provided("lambdas")) fig5->lambdas = cli.real_list("lambdas");
    if (fig5 != nullptr && cli.provided("eps")) fig5->fgsm_eps = cli.real("eps");
    if (cli.provided("seed")) {
        const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
        spec.load.seed = seed;
        if (fig4 != nullptr) fig4->seed = seed + 33;
        if (fig5 != nullptr) fig5->seed = seed;
        if (table1 != nullptr) table1->seed = seed;
    }
    if (cli.provided("data-dir")) spec.load.data_dir = cli.str("data-dir");
}

inline void print_outcome(const core::ScenarioOutcome& outcome, bool ascii) {
    std::cout << "\n## Scenario " << outcome.name << " — " << outcome.label << "\n";
    const std::string stem = core::results_dir() + "/" + core::sanitize_label(outcome.name);
    for (const auto& [name, table] : outcome.tables) {
        std::cout << "\n### " << name << "\n\n" << table;
        table.write_csv(stem + "_" + core::sanitize_label(name) + ".csv");
    }
    if (ascii) {
        for (const auto& [name, text] : outcome.notes) {
            std::cout << "\n### " << name << "\n" << text;
        }
    }
    for (const auto& grid : outcome.grids) {
        core::write_grid_csv(stem + "_" + core::sanitize_label(grid.name) + ".csv", grid.map,
                             grid.shape);
    }
    if (!outcome.metrics.empty()) {
        std::cout << "\nmetrics:";
        for (const auto& [key, value] : outcome.metrics) {
            std::cout << " " << key << "=" << Table::format_number(value, 4);
        }
        std::cout << "\n";
    }
}

/// Runs the named scenarios through one shared runner pool, printing each
/// outcome and recording every metric — plus the pool's thread count and
/// per-scenario wall time — to BENCH_<bench_name>.json via the shared
/// recorder (override the path with --out).
inline int run_scenarios(const std::string& bench_name, const std::vector<std::string>& names,
                         const Cli& cli, ThreadPool& pool, core::ScenarioRunner& runner) {
    bench::BenchRecorder rec(bench_name,
                             std::to_string(pool.thread_count()) + " worker threads, " +
                                 std::to_string(names.size()) + " scenario(s)" +
                                 (cli.boolean("smoke") ? ", smoke" : ""));
    for (const std::string& name : names) {
        core::ScenarioSpec spec = core::builtin_scenarios().get(name);
        apply_overrides(spec, cli);
        WallTimer scenario_timer;
        const core::ScenarioOutcome outcome = runner.run(spec);
        const double seconds = scenario_timer.seconds();
        print_outcome(outcome, cli.boolean("ascii"));
        rec.begin(name);
        rec.add("threads", pool.thread_count());
        rec.add("seconds", seconds);
        for (const auto& [key, value] : outcome.metrics) rec.add(key, value);
    }
    const std::string out_path =
        cli.provided("out") ? cli.str("out") : "BENCH_" + bench_name + ".json";
    if (!rec.write(out_path)) {
        std::fprintf(stderr, "%s: cannot write %s\n", bench_name.c_str(), out_path.c_str());
        return 1;
    }
    std::cout << "\nResults written to " << out_path << "\n";
    return 0;
}

/// Runs every registry scenario whose name starts with `prefix`.
inline int run_prefix(const char* summary, const std::string& prefix, int argc, char** argv,
                      const char* shape_note) {
    Cli cli(summary);
    register_standard_flags(cli);
    try {
        if (!cli.parse(argc, argv)) return 0;

        // The one pool of the whole bench: the runner threads it through
        // every deployment's oracle, collect_queries, and the fig5
        // run-level parallel_for (no per-scenario throwaway pools).
        ThreadPool pool(static_cast<std::size_t>(cli.integer("threads")));
        core::ScenarioRunner runner(&pool);
        const std::vector<std::string> names = core::builtin_scenarios().names(prefix);
        if (names.empty()) {
            std::fprintf(stderr, "no scenarios registered under prefix '%s'\n", prefix.c_str());
            return 1;
        }

        std::string bench_name = prefix;
        while (!bench_name.empty() && bench_name.back() == '/') bench_name.pop_back();
        for (char& c : bench_name) {
            if (c == '/') c = '_';
        }

        WallTimer timer;
        const int rc = run_scenarios(bench_name, names, cli, pool, runner);
        if (rc != 0) return rc;
        if (shape_note != nullptr) std::cout << "\n" << shape_note << "\n";
        std::cout << "\nCSV outputs written to " << core::results_dir() << "/\n";
        log::info(summary, " finished in ", timer.seconds(), " s");
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", summary, e.what());
        return 1;
    }
}

}  // namespace xbarsec::benchscenario
