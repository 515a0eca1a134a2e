// Defensive scenario (library extension): the deployment stacks power
// obfuscation decorators (supply-rail dithering, dummy loads) over the
// crossbar oracle, the attacker's session adds per-client policy (sensing
// noise, a hard query budget), and we measure how much side-channel
// quality the attacker loses under each defense.
//
// The attacker only ever sees `core::Oracle&` (its session);
// swapping the defense is a different stack or session policy, not
// different attack code.
#include <cstdio>
#include <iostream>

#include "xbarsec/common/table.hpp"
#include "xbarsec/core/decorators.hpp"
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

        // Each row probes the deployment through a session over a
        // different decorator stack built on the same backend.
        struct Row {
            const char* name;
            core::DecoratorStack stack;
            std::size_t repeats;
            core::SessionConfig policy{};  ///< pass-through unless set
        };
        std::vector<Row> rows;
        rows.push_back({"undefended", core::DecoratorStack(backend), 1});
        {
            core::ObfuscationConfig dither;
            dither.kind = core::ObfuscationConfig::Kind::Dither;
            dither.magnitude = 0.5 * scale;
            dither.seed = 1;
            core::DecoratorStack stack(backend);
            stack.push<core::ObfuscatedOracle>(dither);
            rows.push_back({"dither (1 probe)", std::move(stack), 1});
        }
        {
            core::ObfuscationConfig dither;
            dither.kind = core::ObfuscationConfig::Kind::Dither;
            dither.magnitude = 0.5 * scale;
            dither.seed = 2;
            core::DecoratorStack stack(backend);
            stack.push<core::ObfuscatedOracle>(dither);
            rows.push_back({"dither (32 probes avg)", std::move(stack), 32});
        }
        {
            core::ObfuscationConfig dummies;
            dummies.kind = core::ObfuscationConfig::Kind::UniformDummy;
            dummies.magnitude = scale;
            core::DecoratorStack stack(backend);
            stack.push<core::ObfuscatedOracle>(dummies);
            rows.push_back({"uniform dummies", std::move(stack), 1});
        }
        {
            core::ObfuscationConfig dummies;
            dummies.kind = core::ObfuscationConfig::Kind::RandomDummy;
            dummies.magnitude = scale;
            dummies.seed = 3;
            core::DecoratorStack stack(backend);
            stack.push<core::ObfuscatedOracle>(dummies);
            rows.push_back({"random dummies", std::move(stack), 1});
        }
        {
            // A full production deployment: randomised dummies on the
            // device, and a session with sensing noise and a hard
            // measurement budget (enough for exactly 32 probe repeats of
            // every line).
            core::ObfuscationConfig dummies;
            dummies.kind = core::ObfuscationConfig::Kind::RandomDummy;
            dummies.magnitude = scale;
            dummies.seed = 3;
            core::SessionConfig policy;
            policy.power_noise_sigma = 0.1 * scale;
            policy.noise_seed = 4;
            policy.budget.max_power = 32 * backend.inputs();
            core::DecoratorStack stack(backend);
            stack.push<core::ObfuscatedOracle>(dummies);
            rows.push_back(
                {"random dummies + noise + budget (32 avg)", std::move(stack), 32, policy});
        }

        Table table({"Deployment", "L1 rel. error", "Top-16 ranking agreement", "Power queries"});
        for (Row& row : rows) {
            backend.reset_counters();
            core::OracleService service(row.stack.top());
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
                     "at the backend, however deep the decorator stack; the budget is charged "
                     "at the session.\n";
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "defended_deployment: %s\n", e.what());
        return 1;
    }
}
