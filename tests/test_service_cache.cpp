// Result-cache contracts of OracleService: cache-off bit-identity with
// the uncached fleet (the default), hit/miss answer identity on
// deterministic stacks (re-run per kernel variant via the
// CMake-registered XBARSEC_FORCE_KERNEL environments), per-session
// policy replay on hits (exposure, budget charging per
// CacheConfig::hits_charge_budget, noise ordinals advancing identically),
// partitioned-vs-shared isolation, eviction stress with monotone stat
// snapshots, the cache-timing scenario's attacker AUC, cache keys
// (equal rows hit; -0.0, kind, replica and partition key apart), and the
// heap allocations of a label hit, a noisy power hit, a request-response
// miss and a pipelined submit. Runs under `ctest -L service` including
// the ASan/UBSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "xbarsec/core/scenario.hpp"
#include "xbarsec/core/service.hpp"
#include "xbarsec/sidechannel/detector.hpp"
#include "xbarsec/tensor/ops.hpp"

// Counts heap allocations for the submission allocation pins.
#include "alloc_counter.hpp"

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

CrossbarOracle make_oracle(const nn::SingleLayerNet& net) {
    return CrossbarOracle(xbar::CrossbarNetwork(net, ideal_spec()));
}

ServiceConfig cached_config(std::size_t capacity = 64, bool partition = false,
                            bool hits_charge = true) {
    ServiceConfig c;
    c.max_wait = std::chrono::microseconds(50000);
    c.cache.enabled = true;
    c.cache.capacity = capacity;
    c.cache.partition_by_session = partition;
    c.cache.hits_charge_budget = hits_charge;
    return c;
}

// ---- cache-off bit-identity -------------------------------------------------

TEST(ServiceCache, OffByDefaultAndBitIdenticalToUncachedService) {
    Rng rng(1);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle plain_backend = make_oracle(net);
    CrossbarOracle cached_off_backend = make_oracle(net);
    ServiceConfig defaults;
    EXPECT_FALSE(defaults.cache.enabled);  // cache-off is the default fleet

    OracleService plain(plain_backend);
    OracleService off(cached_off_backend);  // default config: no cache anywhere
    Session a = plain.open_session();
    Session b = off.open_session();
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 12, net.inputs());
    for (int repeat = 0; repeat < 2; ++repeat) {  // repeats would hit, were a cache on
        for (std::size_t r = 0; r < U.rows(); ++r) {
            EXPECT_EQ(a.query_label(U.row(r)), b.query_label(U.row(r)));
            EXPECT_DOUBLE_EQ(a.query_power(U.row(r)), b.query_power(U.row(r)));
        }
    }
    EXPECT_EQ(off.cache_hits(), 0u);
    EXPECT_EQ(off.cache_misses(), 0u);
    EXPECT_EQ(off.cache_entries(), 0u);
    EXPECT_DOUBLE_EQ(off.cache_hit_rate(), 0.0);
    // Both services did identical backend work: no probe ever happened.
    EXPECT_EQ(plain.counters().total(), off.counters().total());
}

TEST(ServiceCache, EnabledNeedsNonZeroCapacity) {
    Rng rng(2);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config = cached_config(0);
    EXPECT_THROW(OracleService(backend, config), ConfigError);
}

// ---- hit/miss answer identity -----------------------------------------------

TEST(ServiceCache, HitsAreBitIdenticalToCacheOffOnDeterministicStack) {
    // Per kernel arm (the CMake per-variant re-runs): the same scalar
    // query stream through a cached and an uncached service must produce
    // identical labels, raw vectors, and power readings — a hit replays
    // the stored clean answer, which on a deterministic stack is exactly
    // what recomputation would produce.
    Rng rng(3);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle uncached_backend = make_oracle(net);
    CrossbarOracle cached_backend = make_oracle(net);
    OracleService uncached(uncached_backend);
    OracleService cached(cached_backend, cached_config());
    Session a = uncached.open_session();
    Session b = cached.open_session();
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 8, net.inputs());

    for (int repeat = 0; repeat < 3; ++repeat) {
        for (std::size_t r = 0; r < U.rows(); ++r) {
            EXPECT_EQ(a.query_label(U.row(r)), b.query_label(U.row(r)))
                << "repeat " << repeat << " row " << r;
            const tensor::Vector ya = a.query_raw(U.row(r));
            const tensor::Vector yb = b.query_raw(U.row(r));
            ASSERT_EQ(ya.size(), yb.size());
            for (std::size_t j = 0; j < ya.size(); ++j) EXPECT_DOUBLE_EQ(ya[j], yb[j]);
            EXPECT_DOUBLE_EQ(a.query_power(U.row(r)), b.query_power(U.row(r)));
        }
    }
    // Repeats 2 and 3 hit for all three kinds; only the first pass
    // reached the backend.
    EXPECT_EQ(cached.cache_misses(), 3 * U.rows());
    EXPECT_EQ(cached.cache_hits(), 2 * 3 * U.rows());
    EXPECT_EQ(cached.counters().inference, 2 * U.rows());  // label + raw misses only
    EXPECT_EQ(cached.counters().power, U.rows());
    // The session's own counters see every accepted query, hit or miss.
    EXPECT_EQ(b.counters().inference, 3 * 2 * U.rows());
    EXPECT_EQ(b.counters().power, 3 * U.rows());
}

TEST(ServiceCache, BatchSubmissionsBypassTheCache) {
    Rng rng(4);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend, cached_config());
    Session session = service.open_session();
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 6, net.inputs());
    (void)session.submit_labels(U).get();
    (void)session.submit_labels(U).get();  // identical batch: still no probe
    EXPECT_EQ(service.cache_hits(), 0u);
    EXPECT_EQ(service.cache_misses(), 0u);
    EXPECT_EQ(service.cache_entries(), 0u);
    EXPECT_EQ(service.counters().inference, 2 * U.rows());
}

// ---- per-session policy replay on hits --------------------------------------

TEST(ServiceCache, PowerHitsAdvanceTheSessionNoiseOrdinalIdentically) {
    // The cache stores the clean reading; every hit draws the hitting
    // session's own noise at its own next ordinal — the same values, in
    // the same order, as the uncached service would produce.
    Rng rng(5);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle uncached_backend = make_oracle(net);
    CrossbarOracle cached_backend = make_oracle(net);
    CrossbarOracle reference = make_oracle(net);
    OracleService uncached(uncached_backend);
    OracleService cached(cached_backend, cached_config());
    SessionConfig noisy;
    noisy.power_noise_sigma = 0.25;
    noisy.noise_seed = 99;
    Session a = uncached.open_session(noisy);
    Session b = cached.open_session(noisy);
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 4, net.inputs());
    const tensor::Vector clean = reference.query_power_batch(U);

    // Interleave scalar repeats (hits on the cached service) with a batch
    // (bypasses the cache): the ordinal stream must stay in lockstep.
    std::uint64_t ordinal = 0;
    for (std::size_t r = 0; r < U.rows(); ++r) {  // misses: ordinals 0..3
        const double pa = a.query_power(U.row(r));
        const double pb = b.query_power(U.row(r));
        EXPECT_DOUBLE_EQ(pa, pb);
        EXPECT_DOUBLE_EQ(pb, clean[r] + 0.25 * Rng::normal_at(99, ordinal, 0));
        ++ordinal;
    }
    for (std::size_t r = 0; r < U.rows(); ++r) {  // hits: ordinals 4..7
        const double pa = a.query_power(U.row(r));
        const double pb = b.query_power(U.row(r));
        EXPECT_DOUBLE_EQ(pa, pb);
        EXPECT_DOUBLE_EQ(pb, clean[r] + 0.25 * Rng::normal_at(99, ordinal, 0));
        ++ordinal;
    }
    EXPECT_EQ(cached.cache_hits(), U.rows());
    // A batch after the hits continues from ordinal 8 on both services.
    const tensor::Vector ba = a.submit_power_batch(U).get();
    const tensor::Vector bb = b.submit_power_batch(U).get();
    for (std::size_t r = 0; r < U.rows(); ++r) {
        EXPECT_DOUBLE_EQ(ba[r], bb[r]);
        EXPECT_DOUBLE_EQ(bb[r], clean[r] + 0.25 * Rng::normal_at(99, ordinal + r, 0));
    }
}

TEST(ServiceCache, ExposurePolicyStillDeniesOnResidentEntries) {
    // Priming the cache through a privileged session must not leak
    // through a restricted one: the hit path replays the hitting
    // session's own exposure policy before touching the cache.
    Rng rng(6);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend, cached_config());
    Session privileged = service.open_session();
    const tensor::Vector u(net.inputs(), 0.5);
    (void)privileged.query_power(u);
    (void)privileged.query_raw(u);

    SessionConfig restricted;
    restricted.expose_power = false;
    restricted.expose_raw_outputs = false;
    Session blocked = service.open_session(restricted);
    EXPECT_THROW(blocked.submit_power(u), AccessDenied);
    EXPECT_THROW(blocked.submit_raw(u), AccessDenied);
    EXPECT_EQ(blocked.counters().total(), 0u);  // refusals count nothing
    (void)blocked.query_label(u);      // labels stay available
}

TEST(ServiceCache, HitChargingTogglesBudgetSemantics) {
    Rng rng(7);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle charging_backend = make_oracle(net);
    CrossbarOracle free_backend = make_oracle(net);
    // Default semantics: a hit spends budget exactly like a recomputed
    // answer (the paper's attacker-cost model counts queries, not work).
    OracleService charging(charging_backend, cached_config(64, false, true));
    SessionConfig budgeted;
    budgeted.budget.max_inference = 2;
    Session a = charging.open_session(budgeted);
    const tensor::Vector u(net.inputs(), 0.5);
    (void)a.query_label(u);  // miss, charges 1
    (void)a.query_label(u);  // hit, still charges 1
    EXPECT_EQ(a.budget_spent().inference, 2u);
    EXPECT_THROW(a.submit_label(u), QueryBudgetExceeded);
    EXPECT_EQ(a.counters().inference, 2u);  // the refused submission counted nothing

    // hits_charge_budget = false: only misses reach the ledger, so hot
    // repeat traffic stretches the same budget.
    OracleService free_hits(free_backend, cached_config(64, false, false));
    Session b = free_hits.open_session(budgeted);
    (void)b.query_label(u);                            // miss, charges 1
    for (int q = 0; q < 8; ++q) (void)b.query_label(u);  // hits, free
    EXPECT_EQ(b.budget_spent().inference, 1u);
    EXPECT_EQ(b.counters().inference, 9u);  // session telemetry still counts them
    EXPECT_EQ(free_hits.cache_hits(), 8u);
}

// ---- partitioned-vs-shared isolation ----------------------------------------

TEST(ServiceCache, PartitioningIsolatesSessionsSharedDoesNot) {
    Rng rng(8);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle shared_backend = make_oracle(net);
    CrossbarOracle partitioned_backend = make_oracle(net);
    const tensor::Vector u(net.inputs(), 0.5);

    OracleService shared(shared_backend, cached_config(64, false));
    Session sa = shared.open_session();
    Session sb = shared.open_session();
    (void)sa.query_label(u);
    (void)sb.query_label(u);  // cross-session hit: the timing channel
    EXPECT_EQ(shared.cache_hits(), 1u);
    EXPECT_EQ(shared.cache_misses(), 1u);
    EXPECT_EQ(shared.cache_entries(), 1u);
    EXPECT_EQ(shared.counters().inference, 1u);  // one backend answer served both

    OracleService partitioned(partitioned_backend, cached_config(64, true));
    Session pa = partitioned.open_session();
    Session pb = partitioned.open_session();
    (void)pa.query_label(u);
    (void)pb.query_label(u);  // same input, other partition: a miss
    EXPECT_EQ(partitioned.cache_hits(), 0u);
    EXPECT_EQ(partitioned.cache_misses(), 2u);
    EXPECT_EQ(partitioned.cache_entries(), 2u);
    EXPECT_EQ(partitioned.counters().inference, 2u);
    // Each session still hits its *own* entries.
    (void)pa.query_label(u);
    (void)pb.query_label(u);
    EXPECT_EQ(partitioned.cache_hits(), 2u);
}

// ---- cache keys ---------------------------------------------------------------

TEST(ServiceCache, KeysSeparateBitPatternsKindsReplicasAndPartitions) {
    // Keys are mixed from the row's content address (attrib::hash_row):
    // equal rows hit wherever they were built, a −0.0 element keys apart
    // from 0.0 (bit patterns, not values), and kind, replica and
    // partition each key separate entries.
    Rng rng(10);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend_a = make_oracle(net);
    CrossbarOracle backend_b = make_oracle(net);
    tensor::Vector zero_row(net.inputs(), 0.25);
    zero_row[3] = 0.0;
    tensor::Vector negative_zero_row = zero_row;
    negative_zero_row[3] = -0.0;

    {
        OracleService service(backend_a, cached_config());
        Session s = service.open_session();
        (void)s.query_label(zero_row);
        const tensor::Vector equal_row(std::vector<double>(zero_row.begin(), zero_row.end()));
        (void)s.query_label(equal_row);
        EXPECT_EQ(service.cache_hits(), 1u);  // an equal row built apart hits
        (void)s.query_label(negative_zero_row);
        EXPECT_EQ(service.cache_misses(), 2u);  // −0.0 is its own entry...
        (void)s.query_label(zero_row);
        (void)s.query_label(negative_zero_row);
        EXPECT_EQ(service.cache_hits(), 3u);  // ...and displaced neither
        EXPECT_EQ(service.cache_entries(), 2u);

        // One row, three kinds: three entries, each hit on replay.
        (void)s.query_raw(zero_row);
        (void)s.query_power(zero_row);
        EXPECT_EQ(service.cache_entries(), 4u);
        (void)s.query_label(zero_row);
        (void)s.query_raw(zero_row);
        (void)s.query_power(zero_row);
        EXPECT_EQ(service.cache_hits(), 6u);
        EXPECT_EQ(service.cache_misses(), 4u);
    }
    {
        // Two replicas, round-robin: the row's first visit to each
        // replica misses, later visits hit that replica's own entry.
        ServiceConfig config = cached_config();
        config.routing = RoutingPolicy::RoundRobin;
        OracleService service(std::vector<Oracle*>{&backend_a, &backend_b}, config);
        Session s = service.open_session();
        for (int k = 0; k < 6; ++k) (void)s.query_label(zero_row);
        EXPECT_EQ(service.cache_misses(), 2u);
        EXPECT_EQ(service.cache_hits(), 4u);
        EXPECT_EQ(service.cache_entries(), 2u);
    }
    {
        // Partitioned by session: the same row in two sessions.
        OracleService service(backend_a, cached_config(64, /*partition=*/true));
        Session a = service.open_session();
        Session b = service.open_session();
        for (int k = 0; k < 2; ++k) {
            (void)a.query_label(zero_row);
            (void)b.query_label(zero_row);
        }
        EXPECT_EQ(service.cache_misses(), 2u);
        EXPECT_EQ(service.cache_hits(), 2u);
        EXPECT_EQ(service.cache_entries(), 2u);
    }
}

// ---- eviction stress ---------------------------------------------------------

TEST(ServiceCache, EvictionStressKeepsStatsMonotoneAndBounded) {
    Rng rng(9);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    constexpr std::size_t kCapacity = 8;
    OracleService service(backend, cached_config(kCapacity));
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 64, net.inputs());

    std::atomic<bool> done{false};
    std::atomic<bool> monotone{true};
    std::atomic<bool> bounded{true};
    std::thread observer([&] {
        std::uint64_t last_hits = 0, last_misses = 0, last_evictions = 0;
        while (!done.load(std::memory_order_acquire)) {
            const std::uint64_t hits = service.cache_hits();
            const std::uint64_t misses = service.cache_misses();
            const std::uint64_t evictions = service.cache_evictions();
            if (hits < last_hits || misses < last_misses || evictions < last_evictions) {
                monotone.store(false, std::memory_order_release);
            }
            if (service.cache_entries() > kCapacity) bounded.store(false, std::memory_order_release);
            last_hits = hits;
            last_misses = misses;
            last_evictions = evictions;
        }
    });

    constexpr std::size_t kThreads = 4;
    std::vector<Session> sessions;
    for (std::size_t t = 0; t < kThreads; ++t) sessions.push_back(service.open_session());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int pass = 0; pass < 3; ++pass) {
                for (std::size_t r = 0; r < U.rows(); ++r) {
                    (void)sessions[t].query_label(U.row(r));
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    done.store(true, std::memory_order_release);
    observer.join();

    EXPECT_TRUE(monotone.load());
    EXPECT_TRUE(bounded.load());
    EXPECT_LE(service.cache_entries(), kCapacity);
    EXPECT_GT(service.cache_evictions(), 0u);  // 64 distinct keys over 8 slots must evict
    // Every probe is a hit or a miss, and every accepted query probed.
    EXPECT_EQ(service.cache_hits() + service.cache_misses(),
              kThreads * 3 * static_cast<std::uint64_t>(U.rows()));
    const double rate = service.cache_hit_rate();
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
}

// ---- the cache-timing scenario ----------------------------------------------

TEST(ServiceCache, CacheTimingScenarioSeparatesSharedFromPartitioned) {
    // The acceptance bar of the registry scenario, at smoke size: on the
    // shared cache the attacker's latency ranking recovers the victim's
    // query set (AUC >= 0.9); partitioning pushes it back toward chance.
    ScenarioSpec spec = builtin_scenarios().get("service/mnist/cache-timing");
    apply_smoke(spec);
    spec.load.train_count = 300;
    spec.load.test_count = 100;
    spec.victim.train.epochs = 3;
    const ScenarioOutcome outcome = ScenarioRunner().run(spec);
    ASSERT_TRUE(outcome.metrics.count("attacker_auc_shared"));
    ASSERT_TRUE(outcome.metrics.count("attacker_auc_partitioned"));
    EXPECT_GE(outcome.metrics.at("attacker_auc_shared"), 0.9);
    const double partitioned = outcome.metrics.at("attacker_auc_partitioned");
    EXPECT_GE(partitioned, 0.2);
    EXPECT_LE(partitioned, 0.8);
    // The defense also shows up in the attacker's own hit telemetry: no
    // cross-tenant reuse under partitioning.
    EXPECT_DOUBLE_EQ(outcome.metrics.at("attacker_hit_rate_partitioned"), 0.0);
}

// ---- allocation pins ---------------------------------------------------------

/// Every admission tier on, as perfbench's tenant-mix runs them: a
/// log-only detector screen, an adaptive policy, attribution and (when
/// `cache`) the result cache.
struct FullStack {
    nn::SingleLayerNet net;
    CrossbarOracle backend;
    data::Dataset enrol;
    sidechannel::CurrentSignatureDetector detector;
    OracleService service;

    static data::Dataset enrolment(Rng& rng, std::size_t inputs) {
        tensor::Matrix clean = tensor::Matrix::random_uniform(rng, 120, inputs);
        std::vector<int> labels(clean.rows());
        for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<int>(i % 5);
        return data::Dataset(std::move(clean), std::move(labels), 5, data::ImageShape{4, 6, 1});
    }
    static ServiceConfig config(bool cache) {
        ServiceConfig c = cached_config(256);
        c.max_wait = std::chrono::microseconds(0);
        c.cache.enabled = cache;
        c.attribution.enabled = true;
        return c;
    }
    FullStack(Rng& rng, bool cache)
        : net(make_net(rng)),
          backend(make_oracle(net)),
          enrol(enrolment(rng, net.inputs())),
          detector(backend.hardware_for_evaluation(), enrol),
          service(backend, config(cache)) {}

    SessionConfig tenant() const {
        SessionConfig s;
        s.detector = &detector;
        s.adaptive = AdaptivePolicy::escalate_at(0.2, 4.0);
        s.power_noise_sigma = 0.01;
        s.source = 7;
        return s;
    }
};

/// Heap allocations one request-response submit_label makes, on every
/// thread, beyond the caller's row (built before counting, moved in).
std::size_t label_allocations(Session& session, std::span<const double> u) {
    tensor::Vector row(std::vector<double>(u.begin(), u.end()));
    const std::size_t before = alloc_counter::allocations();
    (void)session.submit_label(std::move(row)).get();
    return alloc_counter::allocations() - before;
}

/// The same for one request-response submit_power.
std::size_t power_allocations(Session& session, std::span<const double> u) {
    tensor::Vector row(std::vector<double>(u.begin(), u.end()));
    const std::size_t before = alloc_counter::allocations();
    (void)session.submit_power(std::move(row)).get();
    return alloc_counter::allocations() - before;
}

// Today's counts, pinned so a change that adds an allocation to
// submission fails here. Removing them is ROADMAP item 4; that change
// lowers these numbers.
/// The promise's shared state and its result slot.
constexpr std::size_t kLabelHitAllocations = 2;
/// The promise's 2; the session's noise is counter-based and allocates
/// nothing.
constexpr std::size_t kPowerHitAllocations = 2;
/// The hit's 2 and the backend query_labels call's 3. (Two more, once
/// unattributed, were a default std::promise<int> that every enqueued
/// unit was built around and then discarded; a unit is now built once,
/// with its own promise.)
constexpr std::size_t kLabelMissAllocations = 5;
/// Per pipelined submit_label, on the submitting thread: the promise's
/// 2. The unit moves into the replica's queue, whose capacity the flusher
/// recycles.
constexpr std::size_t kPipelinedLabelAllocations = 2;

TEST(ServiceCache, LabelHitAllocationsArePinned) {
    // The admission tiers (screen, attribution observe, cache probe)
    // allocate nothing on a hit. Fit rows of the enrolment sit inside
    // the detector's envelope, so the row is never flagged (a flagged
    // row's first sighting grows the attribution index).
    Rng rng(21);
    FullStack stack(rng, /*cache=*/true);
    Session session = stack.service.open_session(stack.tenant());
    const auto u = stack.enrol.inputs().row_span(0);
    (void)label_allocations(session, u);  // the miss that fills the entry
    (void)label_allocations(session, u);  // warms the thread arena
    const std::uint64_t hits = stack.service.cache_hits();
    for (int k = 0; k < 8; ++k) {
        EXPECT_EQ(label_allocations(session, u), kLabelHitAllocations) << "hit " << k;
    }
    EXPECT_EQ(stack.service.cache_hits(), hits + 8);
    EXPECT_EQ(session.flagged(), 0u);
}

TEST(ServiceCache, NoisyPowerHitAllocationsArePinned) {
    // A power hit adds the session's own noise (power_noise_sigma is on
    // in the tenant config) to the cached clean reading.
    Rng rng(23);
    FullStack stack(rng, /*cache=*/true);
    Session session = stack.service.open_session(stack.tenant());
    ASSERT_GT(stack.tenant().power_noise_sigma, 0.0);
    const auto u = stack.enrol.inputs().row_span(0);
    (void)power_allocations(session, u);  // the miss that fills the entry
    (void)power_allocations(session, u);  // warms the thread arena
    const std::uint64_t hits = stack.service.cache_hits();
    for (int k = 0; k < 8; ++k) {
        EXPECT_EQ(power_allocations(session, u), kPowerHitAllocations) << "hit " << k;
    }
    EXPECT_EQ(stack.service.cache_hits(), hits + 8);
}

TEST(ServiceCache, RequestResponseMissAllocationsArePinned) {
    Rng rng(22);
    {
        // A plain service: no tier on.
        const nn::SingleLayerNet net = make_net(rng);
        CrossbarOracle backend = make_oracle(net);
        ServiceConfig config;
        config.max_wait = std::chrono::microseconds(0);
        OracleService service(backend, config);
        Session session = service.open_session();
        const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 10, net.inputs());
        // Two warm-up misses: the replica's queue and flush vectors swap
        // capacity, so each grows once.
        for (std::size_t r = 0; r < 2; ++r) (void)label_allocations(session, U.row_span(r));
        for (std::size_t r = 2; r < U.rows(); ++r) {
            EXPECT_EQ(label_allocations(session, U.row_span(r)), kLabelMissAllocations)
                << "plain miss " << r;
        }
    }
    {
        // Every tier but the cache, so each submission is a miss and its
        // one-row unit goes through the attribution observation buffer.
        FullStack stack(rng, /*cache=*/false);
        Session session = stack.service.open_session(stack.tenant());
        const tensor::Matrix& fit = stack.enrol.inputs();  // even rows: inside the envelope
        for (std::size_t r = 0; r < 4; r += 2) (void)label_allocations(session, fit.row_span(r));
        for (std::size_t r = 4; r < 24; r += 2) {
            EXPECT_EQ(label_allocations(session, fit.row_span(r)), kLabelMissAllocations)
                << "full-stack miss " << r;
        }
        EXPECT_EQ(session.flagged(), 0u);
    }
}

TEST(ServiceCache, PipelinedSubmitAllocationsArePinned) {
    // Eight submit_label units in flight at once on a plain service: a
    // 1 s coalescing window holds them in the queue until a synchronous
    // query flushes them. The count is the submitting thread's own, so
    // the flusher's backend call never enters it, whenever it runs.
    Rng rng(24);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.max_wait = std::chrono::seconds(1);
    OracleService service(backend, config);
    Session session = service.open_session();
    constexpr std::size_t kUnits = 8;
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, kUnits, net.inputs());
    std::vector<std::future<int>> pending;
    pending.reserve(kUnits);
    // Rounds 0 and 1 grow the queue and the flusher's swap vector, which
    // trade capacity on every flush; round 2 is counted.
    for (int round = 0; round < 3; ++round) {
        std::vector<tensor::Vector> rows;
        for (std::size_t r = 0; r < kUnits; ++r) rows.push_back(U.row(r));
        const std::size_t before = alloc_counter::thread_allocations();
        for (tensor::Vector& row : rows) pending.push_back(session.submit_label(std::move(row)));
        const std::size_t made = alloc_counter::thread_allocations() - before;
        (void)session.query_label(U.row(0));  // flushes the window
        for (std::future<int>& f : pending) (void)f.get();
        pending.clear();
        if (round == 2) {
            EXPECT_EQ(made, kUnits * kPipelinedLabelAllocations);
        }
    }
}

}  // namespace
}  // namespace xbarsec::core
