// Ablation X3 — the paper's future-work list: how device/measurement
// non-idealities and the obfuscation counter-measures degrade the power
// side channel. Reports the probe's 1-norm recovery error, top-k ranking
// agreement, and the downstream Figure-4 "+" attack efficacy.
#include <cstdio>
#include <iostream>

#include "record.hpp"
#include "xbarsec/attack/single_pixel.hpp"
#include "xbarsec/common/cli.hpp"
#include "xbarsec/common/log.hpp"
#include "xbarsec/common/table.hpp"
#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/common/timer.hpp"
#include "xbarsec/core/queries.hpp"
#include "xbarsec/core/report.hpp"
#include "xbarsec/core/victim.hpp"
#include "xbarsec/data/loaders.hpp"
#include "xbarsec/nn/metrics.hpp"
#include "xbarsec/sidechannel/probe.hpp"
#include "xbarsec/tensor/ops.hpp"

using namespace xbarsec;

namespace {

struct Scenario {
    std::string name;
    xbar::DeviceSpec device;
    xbar::NonIdealityConfig nonideal;
    std::size_t probe_repeats = 1;
    // Power obfuscation set on the deployed device (none = undefended).
    std::vector<core::ObfuscationConfig> obfuscation;
};

}  // namespace

int main(int argc, char** argv) {
    Cli cli("bench_nonideal — side-channel quality under device non-idealities & defenses");
    cli.flag("train", "4000", "training samples");
    cli.flag("test", "800", "test samples");
    cli.flag("epochs", "10", "victim training epochs");
    cli.flag("strength", "6.0", "single-pixel attack strength for the efficacy column");
    cli.flag("seed", "2022", "base seed");
    cli.flag("data-dir", "", "directory with real MNIST files (optional)");
    cli.flag("threads", "0", "worker threads for the batched oracle paths (0 = hardware)");
    cli.flag("out", "BENCH_nonideal.json", "JSON results path");
    cli.flag("smoke", "false", "tiny configuration for CI smoke runs");
    try {
        if (!cli.parse(argc, argv)) return 0;

        data::LoadOptions load;
        load.data_dir = cli.str("data-dir");
        load.train_count = static_cast<std::size_t>(cli.integer("train"));
        load.test_count = static_cast<std::size_t>(cli.integer("test"));
        load.seed = static_cast<std::uint64_t>(cli.integer("seed"));
        std::size_t epochs = static_cast<std::size_t>(cli.integer("epochs"));
        if (cli.boolean("smoke")) {
            load.train_count = 400;
            load.test_count = 120;
            epochs = 4;
        }

        WallTimer timer;
        const data::DataSplit split = data::load_mnist_like(load);
        core::VictimConfig base = core::VictimConfig::defaults(core::OutputConfig::softmax_ce());
        base.train.epochs = epochs;
        const core::TrainedVictim victim = core::train_victim(split, base);
        const tensor::Vector l1_truth = tensor::column_abs_sums(victim.net.weights());
        const double ref_scale = tensor::max(l1_truth);

        std::vector<Scenario> scenarios;
        {
            Scenario s;
            s.name = "ideal";
            scenarios.push_back(s);
        }
        for (const double noise : {0.02, 0.1, 0.3}) {
            Scenario s;
            s.name = "read-noise " + Table::format_number(noise, 2);
            s.nonideal.read_noise_std = noise;
            scenarios.push_back(s);
            Scenario avg = s;
            avg.name += " x16 repeats";
            avg.probe_repeats = 16;
            scenarios.push_back(avg);
        }
        for (const int levels : {16, 4}) {
            Scenario s;
            s.name = "quantised " + std::to_string(levels) + " levels";
            s.device.conductance_levels = levels;
            scenarios.push_back(s);
        }
        {
            Scenario s;
            s.name = "stuck faults 2%/2%";
            s.nonideal.stuck_on_fraction = 0.02;
            s.nonideal.stuck_off_fraction = 0.02;
            scenarios.push_back(s);
        }
        {
            Scenario s;
            s.name = "IR drop r_line=50";
            s.nonideal.line_resistance = 50.0;
            scenarios.push_back(s);
        }
        {
            Scenario s;
            s.name = "write noise 10%";
            s.device.write_noise_std = 0.1;
            scenarios.push_back(s);
        }
        {
            Scenario s;
            s.name = "defense: dither";
            s.obfuscation = {{core::ObfuscationConfig::Kind::Dither, 0.3 * ref_scale,
                              load.seed + 5}};
            scenarios.push_back(s);
        }
        {
            Scenario s;
            s.name = "defense: random dummies";
            s.obfuscation = {{core::ObfuscationConfig::Kind::RandomDummy, ref_scale,
                              load.seed + 6}};
            scenarios.push_back(s);
        }

        const double strength = cli.real("strength");
        // One shared pool for every scenario's batched oracle queries —
        // deployments used to run their probes with no pool at all (and
        // other benches built throwaway pools per iteration).
        ThreadPool pool(static_cast<std::size_t>(cli.integer("threads")));
        Table table({"Scenario", "L1 rel. error", "Top-16 agreement", "'+' attack acc",
                     "RP attack acc", "Deployed acc"});
        bench::BenchRecorder rec(
            "nonideal", "synthetic-mnist-784x10 victim, " + std::to_string(pool.thread_count()) +
                            " worker threads, strength " + Table::format_number(strength, 1));
        for (const Scenario& scenario : scenarios) {
            core::VictimConfig config = base;
            config.device = scenario.device;
            config.nonideal = scenario.nonideal;
            core::CrossbarOracle oracle = core::deploy_victim(victim.net, config);
            oracle.set_thread_pool(&pool);
            oracle.set_power_obfuscation(scenario.obfuscation);
            const nn::SingleLayerNet deployed =
                oracle.hardware_for_evaluation().effective_network();

            sidechannel::ProbeOptions po;
            po.repeats = scenario.probe_repeats;
            // Basis batches ride the oracle's pooled query_power_batch fast
            // path, defended or not.
            WallTimer probe_timer;
            const tensor::Vector l1_est = core::probe_columns(oracle, po).conductance_sums;
            const double probe_seconds = probe_timer.seconds();

            Rng rng(load.seed + 17);
            const double acc_plus = attack::evaluate_single_pixel_attack(
                deployed, split.test, attack::SinglePixelMethod::PowerAdd, strength, &l1_est, rng);
            const double acc_rp = attack::evaluate_single_pixel_attack(
                deployed, split.test, attack::SinglePixelMethod::RandomPixel, strength, &l1_est,
                rng);

            const double rel_error = sidechannel::relative_error(l1_est, l1_truth);
            const double agreement = sidechannel::topk_agreement(l1_est, l1_truth, 16);
            const double deployed_acc = nn::accuracy(deployed, split.test);
            table.begin_row();
            table.add(scenario.name);
            table.add(rel_error, 4);
            table.add(agreement, 3);
            table.add(acc_plus, 4);
            table.add(acc_rp, 4);
            table.add(deployed_acc, 4);

            rec.begin(scenario.name);
            rec.add("threads", pool.thread_count());
            rec.add("probe_seconds", probe_seconds);
            rec.add("power_queries", static_cast<long long>(oracle.counters().power));
            rec.add("l1_rel_error", rel_error);
            rec.add("top16_agreement", agreement);
            rec.add("attack_acc_plus", acc_plus);
            rec.add("attack_acc_rp", acc_rp);
            rec.add("deployed_acc", deployed_acc);
        }

        std::cout << "\n## Side-channel quality under non-idealities (victim clean acc "
                  << Table::format_number(victim.test_accuracy, 3) << ")\n\n"
                  << table << "\n"
                  << "Expected: mild non-idealities barely disturb the ranking (attack still "
                     "beats RP); heavy noise/defenses push '+' toward the RP baseline; "
                     "repeated probes recover from dithering but not from static dummies.\n";
        table.write_csv(core::results_dir() + "/nonideal.csv");
        const std::string out_path = cli.str("out");
        if (!rec.write(out_path)) {
            std::fprintf(stderr, "bench_nonideal: cannot write %s\n", out_path.c_str());
            return 1;
        }
        std::cout << "Results written to " << out_path << "\n";
        log::info("bench_nonideal finished in ", timer.seconds(), " s");
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_nonideal: %s\n", e.what());
        return 1;
    }
}
