// Multi-tenant serving walkthrough: one crossbar deployment, many
// concurrent clients, per-session policy.
//
// An OracleService fronts the deployment; every client opens a Session
// with its own query budget, detection window, and sensing-noise
// stream. Benign clients stream clean classification traffic while an
// attacker hides among them running the paper's probe-then-attack
// pipeline — and the per-session state shows exactly whose window
// flagged and whose budget drained, without the tenants perturbing
// each other.
//
// A second act re-deploys the same victim as a replica fleet: three
// physically distinct crossbars (same weights, per-replica
// device-variation seeds) behind one service with round-robin routing,
// showing the per-replica counters and that every replica still
// answers from the same logical model.
#include <cstdio>
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "xbarsec/common/table.hpp"
#include "xbarsec/core/queries.hpp"
#include "xbarsec/core/service.hpp"
#include "xbarsec/core/victim.hpp"
#include "xbarsec/data/loaders.hpp"
#include "xbarsec/tensor/ops.hpp"

int main() {
    using namespace xbarsec;
    try {
        // Train and deploy the victim (the shared backend).
        data::LoadOptions load;
        load.train_count = 2000;
        load.test_count = 400;
        const data::DataSplit split = data::load_mnist_like(load);
        core::VictimConfig config = core::VictimConfig::defaults(core::OutputConfig::softmax_ce());
        config.train.epochs = 10;
        const core::TrainedVictim victim = core::train_victim(split, config);
        core::CrossbarOracle backend = core::deploy_victim(victim.net, config);

        // One enrolled detector, shared read-only by every session's
        // private screening window.
        const sidechannel::CurrentSignatureDetector detector(backend.hardware_for_evaluation(),
                                                             split.train.take(256));

        // The serving layer over the deployment.
        core::OracleService service(backend);

        // Tenant policy: a power budget that allows about one basis
        // sweep, log-only detection, and a per-tenant noise stream.
        core::SessionConfig tenant;
        tenant.budget.max_power = backend.inputs() + backend.inputs() / 2;
        tenant.detector = &detector;
        tenant.block_flagged = false;

        constexpr std::size_t kBenign = 3;
        constexpr std::size_t kQueries = 400;
        std::vector<core::Session> benign;
        for (std::size_t c = 0; c < kBenign; ++c) benign.push_back(service.open_session(tenant));
        core::Session attacker = service.open_session(tenant);

        // Benign tenants stream pipelined async label queries; the
        // coalescer packs everyone's vectors into shared GEMM batches.
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < kBenign; ++c) {
            clients.emplace_back([&, c] {
                Rng rng(100 + c);
                std::vector<std::future<int>> window;
                for (std::size_t q = 0; q < kQueries; ++q) {
                    const auto pick = static_cast<std::size_t>(rng.below(split.test.size()));
                    window.push_back(benign[c].submit_label(split.test.inputs().row(pick)));
                    if (window.size() == 32) {
                        for (auto& f : window) (void)f.get();
                        window.clear();
                    }
                }
                for (auto& f : window) (void)f.get();
            });
        }

        // The attacker, concurrently: probe the power side channel for
        // the highest-leakage input line (fits the budget once), then
        // drive it with single-pixel inference queries.
        std::size_t flagged_attacks = 0;
        {
            const auto probe = core::probe_columns(attacker);  // a session is an Oracle
            const std::size_t target = tensor::argmax(probe.conductance_sums);
            Rng rng(9);
            for (std::size_t q = 0; q < 64; ++q) {
                const auto pick = static_cast<std::size_t>(rng.below(split.test.size()));
                tensor::Vector u = split.test.inputs().row(pick);
                u[target] = 50.0;  // far beyond any clean pixel
                (void)attacker.submit_label(std::move(u)).get();
            }
            flagged_attacks = attacker.flagged();
            // A second probe sweep would cross the power budget.
            try {
                (void)core::probe_columns(attacker);
            } catch (const core::QueryBudgetExceeded&) {
                std::puts("attacker's second probe: budget exhausted (as designed)");
            }
        }
        for (auto& t : clients) t.join();

        Table table({"Tenant", "Inference", "Power", "Screened", "Flagged", "Flagged frac."});
        for (std::size_t c = 0; c < kBenign; ++c) {
            table.begin_row();
            table.add("benign#" + std::to_string(c));
            table.add(static_cast<long long>(benign[c].counters().inference));
            table.add(static_cast<long long>(benign[c].counters().power));
            table.add(static_cast<long long>(benign[c].screened()));
            table.add(static_cast<long long>(benign[c].flagged()));
            table.add(benign[c].flagged_fraction(), 3);
        }
        table.begin_row();
        table.add("attacker");
        table.add(static_cast<long long>(attacker.counters().inference));
        table.add(static_cast<long long>(attacker.counters().power));
        table.add(static_cast<long long>(attacker.screened()));
        table.add(static_cast<long long>(flagged_attacks));
        table.add(attacker.flagged_fraction(), 3);

        std::cout << table << "\nService totals: "
                  << service.counters().inference << " inference + "
                  << service.counters().power << " power queries over "
                  << service.sessions_opened() << " sessions; "
                  << service.flushed_rows() << " rows in "
                  << service.flushed_batches() << " coalesced backend batches (mean "
                  << Table::format_number(
                         service.flushed_batches() > 0
                             ? static_cast<double>(service.flushed_rows()) /
                                   static_cast<double>(service.flushed_batches())
                             : 0.0,
                         1)
                  << " rows/batch).\n"
                  << "\nTakeaways: the attacker's own window flags its single-pixel "
                     "queries while the benign tenants' windows stay near the "
                     "detector's false-positive rate, and its probe budget drains "
                     "without costing any benign tenant a query — per-session policy "
                     "over one shared backend, with everyone's traffic riding the "
                     "same coalesced GEMM batches.\n";

        // -- Act two: the same victim as a replica fleet ---------------------
        //
        // deploy_victim_fleet programs identical weights onto three
        // crossbars with distinct device-variation seeds (replica 0
        // keeps the base seed — on an ideal device it IS the deployment
        // above; here the fleet gets realistic read noise + stuck cells
        // so the per-replica signatures actually differ). Round-robin
        // routing spreads the scalar stream over the fleet; each replica
        // coalesces its own share on its own flusher.
        core::VictimConfig fleet_victim = config;
        fleet_victim.nonideal.read_noise_std = 0.05;
        fleet_victim.nonideal.stuck_off_fraction = 0.01;
        std::vector<core::CrossbarOracle> fleet =
            core::deploy_victim_fleet(victim.net, fleet_victim, 3);
        std::vector<core::Oracle*> replicas;
        for (core::CrossbarOracle& r : fleet) replicas.push_back(&r);
        core::ServiceConfig fleet_config;
        fleet_config.routing = core::RoutingPolicy::RoundRobin;
        core::OracleService fleet_service(replicas, fleet_config);

        core::Session client = fleet_service.open_session();
        std::size_t agree = 0;
        constexpr std::size_t kFleetQueries = 300;
        {
            std::vector<std::future<int>> window;
            std::vector<int> reference;
            Rng rng(11);
            for (std::size_t q = 0; q < kFleetQueries; ++q) {
                const auto pick = static_cast<std::size_t>(rng.below(split.test.size()));
                reference.push_back(backend.query_label(split.test.inputs().row(pick)));
                window.push_back(client.submit_label(split.test.inputs().row(pick)));
            }
            for (std::size_t q = 0; q < kFleetQueries; ++q) {
                if (window[q].get() == reference[q]) ++agree;
            }
        }

        Table fleet_table({"Replica", "Inference", "Flushed rows", "Flushed batches"});
        for (std::size_t k = 0; k < fleet_service.replica_count(); ++k) {
            fleet_table.begin_row();
            fleet_table.add("xbar#" + std::to_string(k));
            fleet_table.add(static_cast<long long>(fleet_service.replica_counters(k).inference));
            fleet_table.add(static_cast<long long>(fleet_service.flushed_rows(k)));
            fleet_table.add(static_cast<long long>(fleet_service.flushed_batches(k)));
        }
        std::cout << "\n## Replica fleet (3 noisy crossbars, round-robin routing)\n\n"
                  << fleet_table << "\nFleet label agreement with the ideal deployment: "
                  << agree << "/" << kFleetQueries
                  << " — same logical model, three distinct device signatures; "
                     "the disagreements are the per-replica read-noise/stuck-cell "
                     "variation an extraction attacker has to average over "
                     "(see service/mnist/replica-fidelity).\n";
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "concurrent_clients: %s\n", e.what());
        return 1;
    }
}
