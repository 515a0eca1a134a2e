// Shutdown-path accounting: a submission that charges the session's
// BudgetLedger and then fails to hand off to a replica queue (service
// destroyed between charge and enqueue) must refund its charge. The
// ledger invariant under concurrent load racing a shutdown is exact:
// spent == rows of submissions that were accepted (returned a future),
// whatever the interleaving. TSan-friendly: bounded loops, atomics,
// every thread joined before the asserts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "xbarsec/core/service.hpp"

namespace xbarsec::core {
namespace {

xbar::DeviceSpec ideal_spec() {
    xbar::DeviceSpec s;
    s.g_on_max = 100e-6;
    return s;
}

nn::SingleLayerNet make_net(Rng& rng, std::size_t in = 12, std::size_t out = 3) {
    return nn::SingleLayerNet(rng, in, out, nn::Activation::Linear, nn::Loss::Mse);
}

CrossbarOracle make_oracle(const nn::SingleLayerNet& net) {
    return CrossbarOracle(xbar::CrossbarNetwork(net, ideal_spec()));
}

TEST(ServiceShutdown, SubmissionAfterDestructionChargesNothing) {
    Rng rng(1);
    const nn::SingleLayerNet net = make_net(rng);
    const tensor::Vector u(net.inputs(), 0.5);
    for (const bool cached : {false, true}) {
        SCOPED_TRACE(cached ? "cache on" : "cache off");
        CrossbarOracle backend = make_oracle(net);
        ServiceConfig config;
        config.cache.enabled = cached;
        SessionConfig budgeted;
        budgeted.budget.max_inference = 100;
        Session session;
        {
            OracleService service(backend, config);
            session = service.open_session(budgeted);
            (void)session.submit_label(u).get();
        }
        // The service is gone; the handle outlives it and must refuse
        // cleanly without touching the ledger or the counters — a repeated
        // row, which the cache-on service would answer as a hit, included.
        EXPECT_THROW(session.submit_label(u), SessionClosed);
        EXPECT_EQ(session.budget_spent().inference, 1u);
        EXPECT_EQ(session.counters().inference, 1u);
    }
}

TEST(ServiceShutdown, BudgetRefundsExactlyUnderShutdownRace) {
    Rng rng(2);
    const nn::SingleLayerNet net = make_net(rng);
    const tensor::Vector u(net.inputs(), 0.5);
    constexpr int kRounds = 8;
    constexpr int kThreads = 2;
    constexpr int kPerThread = 400;

    for (int round = 0; round < kRounds; ++round) {
        CrossbarOracle backend = make_oracle(net);
        auto service = std::make_unique<OracleService>(backend);
        SessionConfig budgeted;
        budgeted.budget.max_inference = static_cast<std::uint64_t>(kThreads) * kPerThread + 1;
        Session session = service->open_session(budgeted);

        std::atomic<std::uint64_t> accepted{0};
        std::vector<std::thread> submitters;
        submitters.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            submitters.emplace_back([&] {
                std::vector<std::future<int>> pending;
                pending.reserve(kPerThread);
                for (int q = 0; q < kPerThread; ++q) {
                    try {
                        pending.push_back(session.submit_label(u));
                    } catch (const SessionClosed&) {
                        break;  // service shut down under us — expected
                    }
                }
                accepted.fetch_add(pending.size(), std::memory_order_relaxed);
                // Accepted submissions complete normally through the
                // drain, even when the service died mid-stream.
                for (auto& f : pending) (void)f.get();
            });
        }
        // Tear the service down while the submitters race: some
        // submissions hit the closed-session check up front, and some
        // land in the charge-then-enqueue window, which must refund.
        std::this_thread::sleep_for(std::chrono::microseconds(50 + 150 * (round % 4)));
        service.reset();
        for (std::thread& t : submitters) t.join();

        // Exactness is the whole point: one leaked charge (a refused
        // submission that kept its budget row) breaks the equality.
        EXPECT_EQ(session.budget_spent().inference, accepted.load())
            << "round " << round << ": ledger out of sync with accepted submissions";
    }
}

}  // namespace
}  // namespace xbarsec::core
