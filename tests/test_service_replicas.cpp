// Replica-fleet contracts of OracleService: fleet construction and
// validation, per-replica coalesced-vs-serial bit-identity (each
// replica's answer stream must equal serially issuing those queries
// against that replica alone), routing-policy behaviour (round-robin
// fairness, least-loaded preference under a slowed replica, session
// affinity across flushes), per-replica counters summing to the fleet
// aggregate with monotone snapshots, and the replica variation-seed /
// deploy_victim_fleet helpers. Runs under `ctest -L service` (including
// the ASan/UBSan CI job) and is re-run per kernel variant.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "xbarsec/core/service.hpp"
#include "xbarsec/core/victim.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::core {
namespace {

xbar::DeviceSpec ideal_spec() {
    xbar::DeviceSpec s;
    s.g_on_max = 100e-6;
    return s;
}

nn::SingleLayerNet make_net(Rng& rng, std::size_t in = 24, std::size_t out = 5) {
    return nn::SingleLayerNet(rng, in, out, nn::Activation::Linear, nn::Loss::Mse);
}

CrossbarOracle make_oracle(const nn::SingleLayerNet& net, xbar::NonIdealityConfig nonideal = {}) {
    return CrossbarOracle(xbar::CrossbarNetwork(net, ideal_spec(), nonideal));
}

/// Replica k's device state: read noise plus stuck cells, seeded through
/// the same helper production fleets use — distinct physical signatures
/// over identical programmed weights.
xbar::NonIdealityConfig replica_device(std::size_t replica) {
    xbar::NonIdealityConfig c;
    c.read_noise_std = 0.05;
    c.stuck_off_fraction = 0.02;
    c.seed = xbar::replica_variation_seed(c.seed, replica);
    return c;
}

ServiceConfig coalescing_config(RoutingPolicy routing = RoutingPolicy::SessionAffine) {
    ServiceConfig c;
    c.max_wait = std::chrono::microseconds(50000);
    c.routing = routing;
    return c;
}

/// A forwarding Oracle that sleeps on every batched call — the
/// deliberately slowed replica for the least-loaded routing test.
class SlowOracle : public Oracle {
public:
    SlowOracle(Oracle& inner, std::chrono::microseconds delay) : inner_(inner), delay_(delay) {}

    std::size_t inputs() const override { return inner_.inputs(); }
    std::size_t outputs() const override { return inner_.outputs(); }
    int query_label(const tensor::Vector& u) override { return inner_.query_label(u); }
    tensor::Vector query_raw(const tensor::Vector& u) override { return inner_.query_raw(u); }
    double query_power(const tensor::Vector& u) override { return inner_.query_power(u); }
    std::vector<int> query_labels(const tensor::Matrix& U) override {
        std::this_thread::sleep_for(delay_);
        return inner_.query_labels(U);
    }
    tensor::Matrix query_raw_batch(const tensor::Matrix& U) override {
        std::this_thread::sleep_for(delay_);
        return inner_.query_raw_batch(U);
    }
    tensor::Vector query_power_batch(const tensor::Matrix& U) override {
        std::this_thread::sleep_for(delay_);
        return inner_.query_power_batch(U);
    }
    QueryCounters counters() const override { return inner_.counters(); }
    void reset_counters() override { inner_.reset_counters(); }

private:
    Oracle& inner_;
    std::chrono::microseconds delay_;
};

// ---- construction & validation ----------------------------------------------

TEST(ServiceReplicas, SingleEntryFleetMatchesSingleBackendService) {
    Rng rng(1);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle legacy_backend = make_oracle(net, replica_device(0));
    CrossbarOracle fleet_backend = make_oracle(net, replica_device(0));
    OracleService legacy(legacy_backend, coalescing_config());
    OracleService fleet(std::vector<Oracle*>{&fleet_backend}, coalescing_config());
    EXPECT_EQ(fleet.replica_count(), 1u);

    Session a = legacy.open_session();
    Session b = fleet.open_session();
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 24, net.inputs());
    EXPECT_EQ(a.submit_labels(U).get(), b.submit_labels(U).get());
    const tensor::Vector pa = a.submit_power_batch(U).get();
    const tensor::Vector pb = b.submit_power_batch(U).get();
    for (std::size_t r = 0; r < U.rows(); ++r) EXPECT_DOUBLE_EQ(pa[r], pb[r]);
    EXPECT_EQ(legacy.counters().total(), fleet.counters().total());
    EXPECT_EQ(fleet.replica_counters(0).total(), fleet.counters().total());
}

TEST(ServiceReplicas, FleetConstructorValidatesShape) {
    Rng rng(2);
    const nn::SingleLayerNet net = make_net(rng);
    const nn::SingleLayerNet other = make_net(rng, 16, 3);
    CrossbarOracle a = make_oracle(net);
    CrossbarOracle b = make_oracle(other);
    EXPECT_THROW(OracleService(std::vector<Oracle*>{}), ConfigError);
    EXPECT_THROW(OracleService(std::vector<Oracle*>{&a, nullptr}), ConfigError);
    EXPECT_THROW(OracleService(std::vector<Oracle*>{&a, &b}), ConfigError);
}

TEST(ServiceReplicas, RoutingPolicyNamesRoundTrip) {
    for (const RoutingPolicy p : {RoutingPolicy::SessionAffine, RoutingPolicy::RoundRobin,
                                  RoutingPolicy::LeastLoaded}) {
        EXPECT_EQ(parse_routing_policy(to_string(p)), p);
    }
    // Bench/example CLIs pass user input through verbatim: trimmed,
    // case-variant, and separator-variant spellings must all parse.
    EXPECT_EQ(parse_routing_policy("RoundRobin"), RoutingPolicy::RoundRobin);
    EXPECT_EQ(parse_routing_policy(" least-loaded "), RoutingPolicy::LeastLoaded);
    EXPECT_EQ(parse_routing_policy("SESSION_AFFINE"), RoutingPolicy::SessionAffine);
    EXPECT_EQ(parse_routing_policy("Least Loaded"), RoutingPolicy::LeastLoaded);
    EXPECT_EQ(parse_routing_policy("round_robin\t"), RoutingPolicy::RoundRobin);
    EXPECT_THROW(parse_routing_policy("random"), ConfigError);
    EXPECT_THROW(parse_routing_policy(""), ConfigError);
    // The refusal stays helpful: it names the valid spellings.
    try {
        parse_routing_policy("weighted");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("session-affine"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("round-robin"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("least-loaded"), std::string::npos);
    }
}

TEST(ServiceReplicas, VariationSeedIsIdentityAtReplicaZeroAndDistinctBeyond) {
    const std::uint64_t base = 0xBADC0FFEE0DDF00Dull;
    EXPECT_EQ(xbar::replica_variation_seed(base, 0), base);
    EXPECT_NE(xbar::replica_variation_seed(base, 1), base);
    EXPECT_NE(xbar::replica_variation_seed(base, 1), xbar::replica_variation_seed(base, 2));
    EXPECT_NE(xbar::replica_variation_seed(base, 1), xbar::replica_variation_seed(base + 1, 1));
}

TEST(ServiceReplicas, DeployVictimFleetReplicaZeroMatchesSingleDeployment) {
    Rng rng(3);
    const nn::SingleLayerNet net = make_net(rng);
    VictimConfig config = VictimConfig::defaults(OutputConfig::linear_mse());
    config.device = ideal_spec();
    config.nonideal.stuck_off_fraction = 0.05;
    CrossbarOracle single = deploy_victim(net, config);
    std::vector<CrossbarOracle> fleet = deploy_victim_fleet(net, config, 3);
    ASSERT_EQ(fleet.size(), 3u);

    const tensor::Vector u = tensor::Vector::random_uniform(rng, net.inputs());
    // Replica 0 is the single deployment, bit for bit; replica 1 carries
    // a different fault placement, so the side channel differs.
    EXPECT_DOUBLE_EQ(fleet[0].query_power(u), single.query_power(u));
    EXPECT_NE(fleet[1].query_power(u), fleet[0].query_power(u));
}

// ---- per-replica bit-identity -----------------------------------------------

TEST(ServiceReplicas, CoalescedStreamsBitIdenticalToSerialPerReplica) {
    // Two replicas with distinct noisy-device signatures, session-affine
    // routing: session k's coalesced answers must match serially issuing
    // the same queries against a fresh copy of replica k — labels, raw,
    // and power alike (measurement-counter order is observable through
    // the read noise, so this pins queue order per replica too).
    Rng rng(4);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle replica0 = make_oracle(net, replica_device(0));
    CrossbarOracle replica1 = make_oracle(net, replica_device(1));
    CrossbarOracle reference0 = make_oracle(net, replica_device(0));
    CrossbarOracle reference1 = make_oracle(net, replica_device(1));
    OracleService service(std::vector<Oracle*>{&replica0, &replica1}, coalescing_config());

    Session s0 = service.open_session();  // id 1 -> home replica 0
    Session s1 = service.open_session();  // id 2 -> home replica 1
    ASSERT_EQ(s0.home_replica(), 0u);
    ASSERT_EQ(s1.home_replica(), 1u);

    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 16, net.inputs());
    const struct {
        Session* session;
        CrossbarOracle* reference;
    } lanes[] = {{&s0, &reference0}, {&s1, &reference1}};
    for (const auto& lane : lanes) {
        // Pipelined scalar submissions: the replica's flusher coalesces
        // consecutive same-kind units into batched backend calls.
        std::vector<std::future<int>> labels;
        for (std::size_t r = 0; r < U.rows(); ++r) {
            labels.push_back(lane.session->submit_label(U.row(r)));
        }
        std::vector<std::future<tensor::Vector>> raws;
        for (std::size_t r = 0; r < U.rows(); ++r) {
            raws.push_back(lane.session->submit_raw(U.row(r)));
        }
        std::vector<std::future<double>> powers;
        for (std::size_t r = 0; r < U.rows(); ++r) {
            powers.push_back(lane.session->submit_power(U.row(r)));
        }
        for (std::size_t r = 0; r < U.rows(); ++r) {
            EXPECT_EQ(labels[r].get(), lane.reference->query_label(U.row(r)));
        }
        for (std::size_t r = 0; r < U.rows(); ++r) {
            const tensor::Vector want = lane.reference->query_raw(U.row(r));
            const tensor::Vector got = raws[r].get();
            for (std::size_t c = 0; c < want.size(); ++c) EXPECT_DOUBLE_EQ(got[c], want[c]);
        }
        for (std::size_t r = 0; r < U.rows(); ++r) {
            EXPECT_DOUBLE_EQ(powers[r].get(), lane.reference->query_power(U.row(r)));
        }
    }
    EXPECT_EQ(service.replica_counters(0).total(), 3 * U.rows());
    EXPECT_EQ(service.replica_counters(1).total(), 3 * U.rows());
}

TEST(ServiceReplicas, RoundRobinAssignmentIsDeterministicAndBitIdentical) {
    // Synchronous queries through one session under round-robin: unit i
    // lands on replica i % 2, so interleaving fresh references in the
    // same assignment reproduces every answer exactly (noisy hardware —
    // measurement order matters).
    Rng rng(5);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle replica0 = make_oracle(net, replica_device(0));
    CrossbarOracle replica1 = make_oracle(net, replica_device(1));
    CrossbarOracle reference0 = make_oracle(net, replica_device(0));
    CrossbarOracle reference1 = make_oracle(net, replica_device(1));
    OracleService service(std::vector<Oracle*>{&replica0, &replica1},
                          coalescing_config(RoutingPolicy::RoundRobin));
    Session session = service.open_session();
    CrossbarOracle* references[] = {&reference0, &reference1};

    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 12, net.inputs());
    for (std::size_t i = 0; i < U.rows(); ++i) {
        EXPECT_DOUBLE_EQ(session.query_power(U.row(i)), references[i % 2]->query_power(U.row(i)));
    }
    EXPECT_EQ(service.replica_counters(0).power, U.rows() / 2);
    EXPECT_EQ(service.replica_counters(1).power, U.rows() / 2);
}

// ---- routing policies -------------------------------------------------------

TEST(ServiceReplicas, RoundRobinSpreadsRowsFairly) {
    Rng rng(6);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle r0 = make_oracle(net);
    CrossbarOracle r1 = make_oracle(net);
    CrossbarOracle r2 = make_oracle(net);
    CrossbarOracle r3 = make_oracle(net);
    ServiceConfig config = coalescing_config(RoutingPolicy::RoundRobin);
    config.max_wait = std::chrono::microseconds(100);
    OracleService service(std::vector<Oracle*>{&r0, &r1, &r2, &r3}, config);
    Session session = service.open_session();

    constexpr std::size_t kQueries = 128;  // a multiple of the fleet size
    const tensor::Vector u(net.inputs(), 0.5);
    std::vector<std::future<int>> pending;
    pending.reserve(kQueries);
    for (std::size_t q = 0; q < kQueries; ++q) pending.push_back(session.submit_label(u));
    for (auto& f : pending) (void)f.get();

    // One-row units in a count divisible by the fleet: the rotation gives
    // every replica exactly its share (well within the ±1-batch bound).
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < service.replica_count(); ++k) {
        EXPECT_EQ(service.replica_counters(k).inference, kQueries / 4);
        EXPECT_EQ(service.flushed_rows(k), kQueries / 4);
        total += service.replica_counters(k).inference;
    }
    EXPECT_EQ(total, kQueries);
    EXPECT_EQ(service.counters().inference, kQueries);
}

TEST(ServiceReplicas, LeastLoadedAvoidsSlowedReplica) {
    Rng rng(7);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle fast = make_oracle(net);
    CrossbarOracle slow_inner = make_oracle(net);
    SlowOracle slow(slow_inner, std::chrono::milliseconds(20));
    ServiceConfig config;
    config.max_wait = std::chrono::microseconds(100);
    config.routing = RoutingPolicy::LeastLoaded;
    OracleService service(std::vector<Oracle*>{&fast, &slow}, config);
    Session session = service.open_session();

    // Phase 1: a rapid burst with both replicas idle. Routing sees only
    // enqueued-not-yet-answered rows, so the burst alternates roughly
    // evenly — and parks a coalesced batch on the slowed replica, which
    // then sleeps inside its flush while the fast replica drains in
    // microseconds.
    constexpr std::size_t kBurst = 32;
    const tensor::Vector u(net.inputs(), 0.5);
    std::vector<std::future<int>> pending;
    pending.reserve(2 * kBurst);
    for (std::size_t q = 0; q < kBurst; ++q) pending.push_back(session.submit_label(u));

    // Wait for the imbalance to become visible: fast replica empty, slow
    // replica still holding unanswered rows (it sleeps 20 ms per flush).
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    bool imbalanced = false;
    while (std::chrono::steady_clock::now() < deadline) {
        if (service.queue_depth(0) == 0 && service.queue_depth(1) > 0) {
            imbalanced = true;
            break;
        }
        std::this_thread::yield();
    }
    if (!imbalanced) {
        for (auto& f : pending) (void)f.get();
        GTEST_SKIP() << "scheduler never exposed the slowed replica's backlog";
    }

    // Phase 2: a second burst while the slow replica is backed up — the
    // least-loaded scan must steer these rows to the fast replica until
    // its depth catches up with the backlog.
    for (std::size_t q = 0; q < kBurst; ++q) pending.push_back(session.submit_label(u));
    for (auto& f : pending) (void)f.get();

    const std::uint64_t fast_rows = service.replica_counters(0).inference;
    const std::uint64_t slow_rows = service.replica_counters(1).inference;
    EXPECT_EQ(fast_rows + slow_rows, 2 * kBurst);
    EXPECT_GT(fast_rows, slow_rows);
    EXPECT_GE(fast_rows, (2 * kBurst * 6) / 10);
}

TEST(ServiceReplicas, LeastLoadedSteeringHoldsUnderConcurrentFlushes) {
    // The load-snapshot satellite: inflight_rows is charged *before* the
    // queue push and released only after the rows are answered, so a
    // batch migrating queue→flusher mid-snapshot is never double- or
    // zero-counted. Under concurrent submitters racing against active
    // flushes, a zero-count window would let bursts pile onto the
    // backed-up slow replica; steering toward the fast replica must
    // survive the races.
    Rng rng(77);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle fast = make_oracle(net);
    CrossbarOracle slow_inner = make_oracle(net);
    SlowOracle slow(slow_inner, std::chrono::milliseconds(10));
    ServiceConfig config;
    config.max_wait = std::chrono::microseconds(100);
    config.max_batch = 8;  // small batches: many queue→flusher migrations
    config.routing = RoutingPolicy::LeastLoaded;
    OracleService service(std::vector<Oracle*>{&fast, &slow}, config);

    // Park a backlog on the slow replica first (same two-phase setup as
    // above: an even burst, then wait until only the slow side holds
    // unanswered rows).
    Session primer = service.open_session();
    const tensor::Vector u(net.inputs(), 0.5);
    std::vector<std::future<int>> parked;
    for (std::size_t q = 0; q < 32; ++q) parked.push_back(primer.submit_label(u));
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    bool imbalanced = false;
    while (std::chrono::steady_clock::now() < deadline) {
        if (service.queue_depth(0) == 0 && service.queue_depth(1) > 0) {
            imbalanced = true;
            break;
        }
        std::this_thread::yield();
    }
    if (!imbalanced) {
        for (auto& f : parked) (void)f.get();
        GTEST_SKIP() << "scheduler never exposed the slowed replica's backlog";
    }

    // Four submitters race while both flushers churn through small
    // batches — every submission sees a load snapshot taken mid-flush
    // somewhere. Conservation first: every accepted row lands exactly
    // once. Steering second: the fast replica must take the clear
    // majority of the contested rows.
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kPerThread = 32;
    std::vector<Session> sessions;
    for (std::size_t t = 0; t < kThreads; ++t) sessions.push_back(service.open_session());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::vector<std::future<int>> pending;
            pending.reserve(kPerThread);
            for (std::size_t q = 0; q < kPerThread; ++q) {
                pending.push_back(sessions[t].submit_label(u));
            }
            for (auto& f : pending) (void)f.get();
        });
    }
    for (auto& t : threads) t.join();
    for (auto& f : parked) (void)f.get();

    const std::uint64_t fast_rows = service.replica_counters(0).inference;
    const std::uint64_t slow_rows = service.replica_counters(1).inference;
    EXPECT_EQ(fast_rows + slow_rows, 32 + kThreads * kPerThread);
    EXPECT_GT(fast_rows, slow_rows);
    EXPECT_GE(fast_rows, ((32 + kThreads * kPerThread) * 55) / 100);
}

TEST(ServiceReplicas, SessionAffinityStaysOnHomeReplicaAcrossFlushes) {
    Rng rng(8);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle r0 = make_oracle(net);
    CrossbarOracle r1 = make_oracle(net);
    CrossbarOracle r2 = make_oracle(net);
    CrossbarOracle r3 = make_oracle(net);
    ServiceConfig config;
    config.max_wait = std::chrono::microseconds(100);
    OracleService service(std::vector<Oracle*>{&r0, &r1, &r2, &r3}, config);

    // Session homes are assigned round-robin from the session id.
    Session first = service.open_session();
    Session second = service.open_session();
    EXPECT_EQ(first.home_replica(), 0u);
    EXPECT_EQ(second.home_replica(), 1u);

    // Three separate drained bursts = at least three distinct flushes;
    // every row of this session must land on its home replica each time.
    const tensor::Vector u(net.inputs(), 0.4);
    for (int burst = 0; burst < 3; ++burst) {
        std::vector<std::future<int>> pending;
        for (std::size_t q = 0; q < 16; ++q) pending.push_back(second.submit_label(u));
        for (auto& f : pending) (void)f.get();
    }
    EXPECT_EQ(service.replica_counters(second.home_replica()).inference, 48u);
    EXPECT_GE(service.flushed_batches(second.home_replica()), 3u);
    for (std::size_t k = 0; k < service.replica_count(); ++k) {
        if (k != second.home_replica()) {
            EXPECT_EQ(service.replica_counters(k).total(), 0u);
        }
    }
}

// ---- per-replica counters ---------------------------------------------------

TEST(ServiceReplicas, ReplicaCountersSumToFleetAggregateAndStayMonotone) {
    // The QueryCounters satellite, fleet edition: concurrent snapshots of
    // the fleet aggregate and the per-replica sum must never run
    // backwards between resets, and after the load drains the per-replica
    // counters account for every accepted row exactly.
    Rng rng(9);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle r0 = make_oracle(net);
    CrossbarOracle r1 = make_oracle(net);
    CrossbarOracle r2 = make_oracle(net);
    ServiceConfig config;
    config.max_wait = std::chrono::microseconds(100);
    config.routing = RoutingPolicy::RoundRobin;
    OracleService service(std::vector<Oracle*>{&r0, &r1, &r2}, config);

    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kPerThread = 64;
    std::vector<Session> sessions;
    for (std::size_t t = 0; t < kThreads; ++t) sessions.push_back(service.open_session());
    const tensor::Vector u(net.inputs(), 0.6);

    std::atomic<bool> done{false};
    std::atomic<bool> monotone{true};
    std::thread observer([&] {
        QueryCounters last_fleet, last_sum;
        while (!done.load(std::memory_order_acquire)) {
            const QueryCounters fleet = service.counters();
            QueryCounters sum;
            for (std::size_t k = 0; k < service.replica_count(); ++k) {
                const QueryCounters c = service.replica_counters(k);
                sum.inference += c.inference;
                sum.power += c.power;
            }
            if (fleet.inference < last_fleet.inference || fleet.power < last_fleet.power ||
                sum.inference < last_sum.inference || sum.power < last_sum.power) {
                monotone.store(false, std::memory_order_release);
            }
            last_fleet = fleet;
            last_sum = sum;
        }
    });

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t q = 0; q < kPerThread; ++q) {
                auto fl = sessions[t].submit_label(u);
                auto fp = sessions[t].submit_power(u);
                (void)fl.get();
                (void)fp.get();
            }
        });
    }
    for (auto& t : threads) t.join();
    done.store(true, std::memory_order_release);
    observer.join();

    EXPECT_TRUE(monotone.load());
    QueryCounters sum;
    for (std::size_t k = 0; k < service.replica_count(); ++k) {
        sum.inference += service.replica_counters(k).inference;
        sum.power += service.replica_counters(k).power;
    }
    EXPECT_EQ(sum.inference, kThreads * kPerThread);
    EXPECT_EQ(sum.power, kThreads * kPerThread);
    EXPECT_EQ(service.counters().inference, sum.inference);
    EXPECT_EQ(service.counters().power, sum.power);

    // Service-wide reset clears every replica; sessions keep their own
    // counters (PR-5 semantics), and new traffic counts from zero on
    // exactly one replica.
    service.reset_counters();
    EXPECT_EQ(service.counters().total(), 0u);
    for (std::size_t k = 0; k < service.replica_count(); ++k) {
        EXPECT_EQ(service.replica_counters(k).total(), 0u);
    }
    EXPECT_EQ(sessions[0].counters().inference, kPerThread);
    (void)sessions[0].submit_label(u).get();
    EXPECT_EQ(service.counters().inference, 1u);
}

}  // namespace
}  // namespace xbarsec::core
