// Generic scenario driver: list and run any entry of the scenario
// registry — the whole experiment surface of the repo behind one CLI.
//
//   bench_scenarios --list
//   bench_scenarios --run=probe/mnist/defended
//   bench_scenarios --run=fig4/ --smoke        (prefix = every fig4 entry)
//   bench_scenarios --run= --smoke             (empty prefix = the whole registry)
#include "scenario_bench_common.hpp"

using namespace xbarsec;

int main(int argc, char** argv) {
    Cli cli("bench_scenarios — unified driver for the named scenario registry");
    cli.flag("list", "false", "list registered scenarios and exit");
    cli.flag("run", "", "scenario name or prefix to run");
    benchscenario::register_standard_flags(cli);
    try {
        if (!cli.parse(argc, argv)) return 0;

        core::ScenarioRegistry& registry = core::builtin_scenarios();
        if (cli.boolean("list") || !cli.provided("run")) {
            Table table({"Scenario", "Description"});
            for (const std::string& name : registry.names()) {
                table.begin_row();
                table.add(name);
                table.add(registry.get(name).description);
            }
            std::cout << "\n## Registered scenarios (" << registry.size() << ")\n\n"
                      << table << "\nRun one with --run=<name> (or a prefix like --run=fig4/).\n";
            return 0;
        }

        const std::string selector = cli.str("run");
        std::vector<std::string> names;
        if (registry.contains(selector)) {
            names.push_back(selector);
        } else {
            names = registry.names(selector);
            if (names.empty()) {
                // Produces the helpful unknown-name error listing.
                registry.get(selector);
            }
        }

        ThreadPool pool(static_cast<std::size_t>(cli.integer("threads")));
        core::ScenarioRunner runner(&pool);
        WallTimer timer;
        const int rc = benchscenario::run_scenarios("scenarios", names, cli, pool, runner);
        if (rc != 0) return rc;
        log::info("bench_scenarios finished ", names.size(), " scenario(s) in ", timer.seconds(),
                  " s");
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_scenarios: %s\n", e.what());
        return 1;
    }
}
