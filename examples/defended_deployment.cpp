// Defensive scenario (library extension): the deployed crossbar carries
// power obfuscation (supply-rail dithering, dummy loads), the attacker's
// session adds per-client policy (sensing noise, a hard query budget),
// and we measure how much side-channel quality the attacker loses under
// each defense.
//
// The attacker only ever sees `core::Oracle&` (its session); swapping
// the defense is a different device setting or session policy, not
// different attack code.
#include <cstdio>
#include <iostream>

#include "xbarsec/common/table.hpp"
#include "xbarsec/core/queries.hpp"
#include "xbarsec/core/service.hpp"
#include "xbarsec/core/victim.hpp"
#include "xbarsec/data/loaders.hpp"
#include "xbarsec/tensor/ops.hpp"

int main() {
    using namespace xbarsec;
    try {
        data::LoadOptions load;
        load.train_count = 2000;
        load.test_count = 400;
        const data::DataSplit split = data::load_mnist_like(load);

        core::VictimConfig config = core::VictimConfig::defaults(core::OutputConfig::softmax_ce());
        config.train.epochs = 10;
        const core::TrainedVictim victim = core::train_victim(split, config);
        core::CrossbarOracle backend = core::deploy_victim(victim.net, config);
        const tensor::Vector truth = tensor::column_abs_sums(victim.net.weights());
        const double scale = tensor::max(truth);

        // Each row sets a different power obfuscation on the same backend
        // and probes it through a session.
        using Kind = core::ObfuscationConfig::Kind;
        struct Row {
            const char* name;
            std::vector<core::ObfuscationConfig> obfuscation;
            std::size_t repeats;
            core::SessionConfig policy{};  ///< pass-through unless set
        };
        // A full production deployment (the last row): randomised dummies
        // on the device, and a session with sensing noise and a hard
        // measurement budget (enough for exactly 32 probe repeats of every
        // line).
        core::SessionConfig production;
        production.power_noise_sigma = 0.1 * scale;
        production.noise_seed = 4;
        production.budget.max_power = 32 * backend.inputs();
        const std::vector<Row> rows = {
            {"undefended", {}, 1},
            {"dither (1 probe)", {{Kind::Dither, 0.5 * scale, 1}}, 1},
            {"dither (32 probes avg)", {{Kind::Dither, 0.5 * scale, 2}}, 32},
            {"uniform dummies", {{Kind::UniformDummy, scale}}, 1},
            {"random dummies", {{Kind::RandomDummy, scale, 3}}, 1},
            {"random dummies + noise + budget (32 avg)", {{Kind::RandomDummy, scale, 3}}, 32,
             production},
        };

        Table table({"Deployment", "L1 rel. error", "Top-16 ranking agreement", "Power queries"});
        for (const Row& row : rows) {
            backend.set_power_obfuscation(row.obfuscation);
            backend.reset_counters();
            core::OracleService service(backend);
            core::Session session = service.open_session(row.policy);
            sidechannel::ProbeOptions po;
            po.repeats = row.repeats;
            const tensor::Vector est =
                core::probe_columns(session, po).conductance_sums;
            table.begin_row();
            table.add(row.name);
            table.add(sidechannel::relative_error(est, truth), 4);
            table.add(sidechannel::topk_agreement(est, truth, 16), 3);
            table.add(static_cast<long long>(backend.counters().power));
        }
        std::cout << table
                  << "\nTakeaways: dithering is defeated by averaging; uniform dummies shift "
                     "magnitudes but cannot hide the *ranking*; randomised per-line dummies "
                     "survive averaging and actually blunt the attack — and a query budget "
                     "caps how hard the attacker can average. Counters are accumulated once, "
                     "at the backend, however many obfuscation layers it has; the budget is "
                     "charged at the session.\n";
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "defended_deployment: %s\n", e.what());
        return 1;
    }
}
