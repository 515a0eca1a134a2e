// OracleService core contracts: async submission, cross-client query
// coalescing, bit-identity of coalesced vs serial issue for all three
// query kinds (on noisy hardware, where measurement-counter order is
// observable — and re-run per kernel variant via the CMake-registered
// XBARSEC_FORCE_KERNEL environments), per-session policy enforcement at
// submit time, counter semantics, and the coalescing window's deadline.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <thread>

#include "xbarsec/core/service.hpp"
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

CrossbarOracle make_oracle(const nn::SingleLayerNet& net, OracleOptions options = {},
                           xbar::NonIdealityConfig nonideal = {}) {
    return CrossbarOracle(xbar::CrossbarNetwork(net, ideal_spec(), nonideal), options);
}

xbar::NonIdealityConfig noisy_device() {
    xbar::NonIdealityConfig c;
    c.read_noise_std = 0.05;
    return c;
}

/// A long coalescing window, so a burst of async submissions from one
/// thread reliably lands in few backend batches.
ServiceConfig coalescing_config() {
    ServiceConfig c;
    c.max_wait = std::chrono::microseconds(50000);
    return c;
}

// ---- async submission -------------------------------------------------------

TEST(Service, FuturesResolveToBackendAnswers) {
    Rng rng(1);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle reference = make_oracle(net);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    Session session = service.open_session();

    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 8, net.inputs());
    auto labels = session.submit_labels(U);
    auto raw = session.submit_raw_batch(U);
    auto power = session.submit_power_batch(U);

    EXPECT_EQ(labels.get(), reference.query_labels(U));
    const tensor::Matrix want_raw = reference.query_raw_batch(U);
    const tensor::Matrix got_raw = raw.get();
    for (std::size_t r = 0; r < U.rows(); ++r) {
        for (std::size_t c = 0; c < want_raw.cols(); ++c) {
            EXPECT_DOUBLE_EQ(got_raw(r, c), want_raw(r, c));
        }
    }
    // A session without sensing noise reads the backend's power bit for bit.
    const tensor::Vector want_power = reference.query_power_batch(U);
    const tensor::Vector got_power = power.get();
    for (std::size_t r = 0; r < U.rows(); ++r) EXPECT_EQ(got_power[r], want_power[r]);
}

TEST(Service, ScalarSubmissionsMatchScalarQueries) {
    Rng rng(2);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle reference = make_oracle(net);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    Session session = service.open_session();
    const tensor::Vector u = tensor::Vector::random_uniform(rng, net.inputs());

    EXPECT_EQ(session.submit_label(u).get(), reference.query_label(u));
    const tensor::Vector want = reference.query_raw(u);
    const tensor::Vector got = session.submit_raw(u).get();
    for (std::size_t c = 0; c < want.size(); ++c) EXPECT_DOUBLE_EQ(got[c], want[c]);
    EXPECT_DOUBLE_EQ(session.submit_power(u).get(), reference.query_power(u));
}

// ---- coalescing & bit-identity ----------------------------------------------

TEST(Service, CoalescedLabelsBitIdenticalToSerialOnNoisyHardware) {
    Rng rng(3);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle serial = make_oracle(net, {}, noisy_device());
    CrossbarOracle backend = make_oracle(net, {}, noisy_device());
    OracleService service(backend, coalescing_config());
    Session session = service.open_session();
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 64, net.inputs());

    std::vector<std::future<int>> pending;
    pending.reserve(U.rows());
    for (std::size_t r = 0; r < U.rows(); ++r) pending.push_back(session.submit_label(U.row(r)));
    for (std::size_t r = 0; r < U.rows(); ++r) {
        EXPECT_EQ(pending[r].get(), serial.query_label(U.row(r))) << "row " << r;
    }
    // The burst really was coalesced (one pipelined submitter, 50 ms
    // window): far fewer backend batches than submissions.
    EXPECT_EQ(service.flushed_rows(), U.rows());
    EXPECT_LT(service.flushed_batches(), U.rows() / 2);
}

TEST(Service, CoalescedRawAndPowerBitIdenticalToSerialOnNoisyHardware) {
    Rng rng(4);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle serial = make_oracle(net, {}, noisy_device());
    CrossbarOracle backend = make_oracle(net, {}, noisy_device());
    OracleService service(backend, coalescing_config());
    Session session = service.open_session();
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 32, net.inputs());

    // All raws first, then all powers — same order serially.
    std::vector<std::future<tensor::Vector>> raws;
    for (std::size_t r = 0; r < U.rows(); ++r) raws.push_back(session.submit_raw(U.row(r)));
    std::vector<std::future<double>> powers;
    for (std::size_t r = 0; r < U.rows(); ++r) powers.push_back(session.submit_power(U.row(r)));

    for (std::size_t r = 0; r < U.rows(); ++r) {
        const tensor::Vector got = raws[r].get();
        const tensor::Vector want = serial.query_raw(U.row(r));
        for (std::size_t c = 0; c < want.size(); ++c) {
            EXPECT_DOUBLE_EQ(got[c], want[c]) << "row " << r << " col " << c;
        }
    }
    for (std::size_t r = 0; r < U.rows(); ++r) {
        EXPECT_DOUBLE_EQ(powers[r].get(), serial.query_power(U.row(r))) << "row " << r;
    }
}

TEST(Service, InterleavedKindsPreserveSerialMeasurementOrder) {
    // label, power, raw, label, power, raw, ... — the coalescer may only
    // merge *consecutive* same-kind runs, so the backend's measurement
    // counter advances exactly as under serial issue.
    Rng rng(5);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle serial = make_oracle(net, {}, noisy_device());
    CrossbarOracle backend = make_oracle(net, {}, noisy_device());
    OracleService service(backend, coalescing_config());
    Session session = service.open_session();
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 18, net.inputs());

    std::vector<std::future<int>> labels;
    std::vector<std::future<double>> powers;
    std::vector<std::future<tensor::Vector>> raws;
    for (std::size_t r = 0; r < U.rows(); r += 3) {
        labels.push_back(session.submit_label(U.row(r)));
        powers.push_back(session.submit_power(U.row(r + 1)));
        raws.push_back(session.submit_raw(U.row(r + 2)));
    }
    std::size_t i = 0;
    for (std::size_t r = 0; r < U.rows(); r += 3, ++i) {
        EXPECT_EQ(labels[i].get(), serial.query_label(U.row(r)));
        EXPECT_DOUBLE_EQ(powers[i].get(), serial.query_power(U.row(r + 1)));
        const tensor::Vector got = raws[i].get();
        const tensor::Vector want = serial.query_raw(U.row(r + 2));
        for (std::size_t c = 0; c < want.size(); ++c) EXPECT_DOUBLE_EQ(got[c], want[c]);
    }
}

TEST(Service, ExplicitBatchSubmissionsAreNeverSplit) {
    // A single submitted batch larger than max_batch passes through to
    // the backend whole (all-or-nothing stack semantics preserved).
    Rng rng(6);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.max_batch = 16;
    OracleService service(backend, config);
    Session session = service.open_session();
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 64, net.inputs());
    (void)session.submit_labels(U).get();
    EXPECT_EQ(service.flushed_batches(), 1u);
    EXPECT_EQ(service.flushed_rows(), 64u);
}

TEST(Service, SessionRunsExistingOracleCode) {
    Rng rng(7);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle reference = make_oracle(net);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    Session session = service.open_session();
    Oracle& oracle = session;

    EXPECT_EQ(oracle.inputs(), net.inputs());
    EXPECT_EQ(oracle.outputs(), net.outputs());
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 10, net.inputs());
    EXPECT_EQ(oracle.query_labels(U), reference.query_labels(U));
    EXPECT_EQ(oracle.counters().inference, 10u);  // the session's counters
    oracle.reset_counters();
    EXPECT_EQ(session.counters().inference, 0u);
}

// ---- per-session policy at submission ---------------------------------------

TEST(Service, SessionBudgetIsChargedAllOrNothingAtSubmit) {
    Rng rng(8);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    SessionConfig config;
    config.budget.max_inference = 10;
    Session session = service.open_session(config);
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 8, net.inputs());

    EXPECT_NO_THROW(session.submit_labels(U).get());                  // 8 of 10
    EXPECT_THROW(session.submit_labels(U), QueryBudgetExceeded);      // would cross
    EXPECT_EQ(session.budget_spent().inference, 8u);                  // not charged
    EXPECT_EQ(session.counters().inference, 8u);                      // not counted
    EXPECT_EQ(backend.counters().inference, 8u);                      // never reached backend
}

TEST(Service, SessionExposureOptionsDenyAtSubmit) {
    Rng rng(9);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    SessionConfig config;
    config.expose_raw_outputs = false;
    config.expose_power = false;
    Session session = service.open_session(config);
    const tensor::Vector u(net.inputs(), 0.5);

    EXPECT_THROW(session.submit_raw(u), AccessDenied);
    EXPECT_THROW(session.submit_power(u), AccessDenied);
    EXPECT_NO_THROW(session.submit_label(u).get());
    EXPECT_EQ(backend.counters().power, 0u);
}

TEST(Service, SessionNoiseIsDeterministicInTheSessionOrdinal) {
    Rng rng(10);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    SessionConfig config;
    config.power_noise_sigma = 0.25;
    config.noise_seed = 77;
    Session session = service.open_session(config);
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 6, net.inputs());

    const tensor::Vector clean = backend.query_power_batch(U);
    const tensor::Vector noisy = session.submit_power_batch(U).get();
    for (std::size_t r = 0; r < U.rows(); ++r) {
        EXPECT_DOUBLE_EQ(noisy[r], clean[r] + 0.25 * Rng::normal_at(77, r, 0)) << "row " << r;
    }
    // Scalar follow-up continues the same ordinal stream.
    const double p = session.submit_power(U.row(0)).get();
    EXPECT_DOUBLE_EQ(p, clean[0] + 0.25 * Rng::normal_at(77, U.rows(), 0));
}

TEST(Service, SessionTotalBudgetSpansBothKinds) {
    Rng rng(20);
    CrossbarOracle backend = make_oracle(make_net(rng));
    OracleService service(backend);
    SessionConfig config;
    config.budget.max_total = 3;
    Session session = service.open_session(config);
    const tensor::Vector u(backend.inputs(), 0.5);

    EXPECT_NO_THROW((void)session.submit_label(u).get());
    EXPECT_NO_THROW((void)session.submit_power(u).get());
    EXPECT_NO_THROW((void)session.submit_raw(u).get());
    EXPECT_THROW(session.submit_label(u), QueryBudgetExceeded);
    EXPECT_THROW(session.submit_power(u), QueryBudgetExceeded);
    EXPECT_EQ(backend.counters().total(), 3u);  // refusals never ran
}

TEST(Service, BackendExposureStillDeniesSessionRawQueries) {
    // Session exposure options are AND-ed with the deployment's: a
    // pass-through session cannot widen what the backend exposes.
    Rng rng(24);
    OracleOptions closed;
    closed.expose_raw_outputs = false;
    CrossbarOracle backend = make_oracle(make_net(rng), closed);
    OracleService service(backend);
    Session session = service.open_session();
    EXPECT_THROW((void)session.query_raw(tensor::Vector(backend.inputs(), 0.1)),
                 AccessDenied);
    EXPECT_NO_THROW((void)session.query_label(tensor::Vector(backend.inputs(), 0.1)));
}

// ---- counters ---------------------------------------------------------------

TEST(Service, CountersAggregateAcrossSessionsAndReset) {
    Rng rng(11);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    Session a = service.open_session();
    Session b = service.open_session();
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 5, net.inputs());

    (void)a.submit_labels(U).get();
    (void)b.submit_power_batch(U).get();
    EXPECT_EQ(a.counters().inference, 5u);
    EXPECT_EQ(a.counters().power, 0u);
    EXPECT_EQ(b.counters().power, 5u);
    EXPECT_EQ(service.counters().inference, 5u);
    EXPECT_EQ(service.counters().power, 5u);
    EXPECT_EQ(service.counters().total(), 10u);

    service.reset_counters();
    EXPECT_EQ(service.counters().total(), 0u);
    EXPECT_EQ(a.counters().inference, 5u);  // per-tenant state survives service reset
    a.reset_counters();
    EXPECT_EQ(a.counters().inference, 0u);
    // An unlimited session has no ledger to keep (the fast path skips
    // it); counters() is the telemetry for such sessions.
    EXPECT_EQ(a.budget_spent().inference, 0u);
}

TEST(QueryCountersTotal, SaturatesInsteadOfWrapping) {
    QueryCounters c;
    c.inference = ~std::uint64_t{0} - 3;
    c.power = 10;
    EXPECT_EQ(c.total(), ~std::uint64_t{0});
    c.power = 3;
    EXPECT_EQ(c.total(), ~std::uint64_t{0});
    c.inference = 7;
    EXPECT_EQ(c.total(), 10u);
}

TEST(QueryCountersTotal, FleetAggregateSaturatesNearMax) {
    // The fleet aggregate (OracleService::counters()) accumulates
    // per-replica buckets with add_saturating: near-max replicas must
    // clamp, not wrap — a wrapped aggregate would break total()'s
    // monotonicity contract.
    const std::uint64_t max = ~std::uint64_t{0};
    QueryCounters fleet;
    QueryCounters replica;
    replica.inference = max - 5;
    replica.power = max - 2;
    fleet.add_saturating(replica);
    EXPECT_EQ(fleet.inference, max - 5);
    EXPECT_EQ(fleet.power, max - 2);
    QueryCounters more;
    more.inference = 3;  // fits: no clamp
    more.power = 7;      // would wrap: clamps to max
    fleet.add_saturating(more);
    EXPECT_EQ(fleet.inference, max - 2);
    EXPECT_EQ(fleet.power, max);
    EXPECT_EQ(fleet.total(), max);
    // Saturated buckets stay pinned under further accumulation.
    fleet.add_saturating(more);
    EXPECT_EQ(fleet.inference, max);
    EXPECT_EQ(fleet.power, max);
    EXPECT_EQ(QueryCounters::saturating_add(max, max), max);
}

// ---- lifecycle --------------------------------------------------------------

TEST(Service, ClosedSessionRejectsNewSubmissions) {
    Rng rng(12);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    Session session = service.open_session();
    const tensor::Vector u(net.inputs(), 0.5);
    (void)session.submit_label(u).get();
    session.close();
    EXPECT_FALSE(session.open());
    EXPECT_THROW(session.submit_label(u), SessionClosed);
    EXPECT_EQ(session.counters().inference, 1u);  // state survives close
}

TEST(Service, DestructionDrainsPendingSubmissions) {
    Rng rng(13);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    std::future<std::vector<int>> pending;
    tensor::Matrix U = tensor::Matrix::random_uniform(rng, 12, net.inputs());
    {
        OracleService service(backend, coalescing_config());
        Session session = service.open_session();
        pending = session.submit_labels(U);
        // The service destructor must flush the queue before joining.
    }
    EXPECT_EQ(pending.get().size(), 12u);
    EXPECT_EQ(backend.counters().inference, 12u);
}

TEST(Service, MoveAssignClosesDisplacedSessionAndRebindsOracleView) {
    Rng rng(14);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    const tensor::Vector u(net.inputs(), 0.5);

    Session session = service.open_session();
    Oracle& view = session;  // reference taken BEFORE the move
    (void)view.query_label(u);
    const std::uint64_t displaced_id = session.id();

    session = service.open_session();
    EXPECT_NE(session.id(), displaced_id);
    EXPECT_TRUE(session.open());

    // Both the handle and the pre-move Oracle& must drive the NEW
    // session: the displaced state is gone, not dangling.
    (void)session.submit_label(u).get();
    (void)view.query_label(u);
    EXPECT_EQ(session.counters().inference, 2u);

    // Move-assigning an empty session over an open one closes it, and
    // the emptied session refuses every Oracle call.
    session = Session();
    EXPECT_FALSE(session.open());
    EXPECT_THROW((void)view.query_label(u), SessionClosed);
    EXPECT_THROW((void)view.inputs(), SessionClosed);
}

TEST(Service, MoveAssignedOverSessionIsClosedOnTheService) {
    Rng rng(15);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);

    Session a = service.open_session();
    Session b = service.open_session();
    const std::uint64_t open_before = service.sessions_opened();
    a = std::move(b);  // the session a held must be closed, not leaked open
    EXPECT_TRUE(a.open());
    EXPECT_EQ(service.sessions_opened(), open_before);
    (void)a.submit_label(tensor::Vector(net.inputs(), 0.5)).get();
}

TEST(Service, ConfigValidationThrowsConfigErrorAtConstruction) {
    Rng rng(16);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    {
        ServiceConfig config;
        config.max_batch = 0;
        EXPECT_THROW(OracleService(backend, config), ConfigError);
    }
    {
        ServiceConfig config;
        config.max_wait = std::chrono::microseconds(-1);
        EXPECT_THROW(OracleService(backend, config), ConfigError);
    }
    {
        ServiceConfig config;
        config.cache.enabled = true;
        config.cache.capacity = 0;
        EXPECT_THROW(OracleService(backend, config), ConfigError);
    }
}

TEST(Service, ZeroMaxWaitFlushesImmediately) {
    // max_wait{0} is explicit flush-immediately semantics: every pending
    // group flushes without a coalescing window (and the flusher must
    // not spin hot while idle — the submissions below would hang or
    // starve if zero-wait were treated as a 0 us timed wait loop).
    Rng rng(17);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.max_wait = std::chrono::microseconds(0);
    OracleService service(backend, config);
    Session session = service.open_session();
    const tensor::Vector u(net.inputs(), 0.5);
    for (int i = 0; i < 32; ++i) EXPECT_EQ(session.submit_label(u).get(), backend.query_label(u));
}

// ---- coalescing window --------------------------------------------------------

using Clock = std::chrono::steady_clock;

TEST(Service, WindowIsTimedFromTheOldestPendingUnit) {
    // Two async units ~20 ms apart share one window, which closes
    // max_wait after the first arrived: the first waits the whole
    // window, the second only what was left of it. Lower bounds are
    // exact; upper bounds leave room for a loaded host.
    Rng rng(19);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.max_wait = std::chrono::milliseconds(40);
    OracleService service(backend, config);
    Session session = service.open_session();
    const tensor::Vector u(net.inputs(), 0.5);

    const Clock::time_point first_submitted = Clock::now();
    auto first = session.submit_label(u);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const Clock::time_point second_submitted = Clock::now();
    auto second = session.submit_label(u);
    (void)first.get();
    const Clock::time_point first_resolved = Clock::now();
    (void)second.get();
    const Clock::time_point second_resolved = Clock::now();

    EXPECT_EQ(service.flushed_batches(), 1u);
    EXPECT_GE(first_resolved - first_submitted, config.max_wait);
    EXPECT_LT(second_resolved - second_submitted, config.max_wait);
}

TEST(Service, ClosingAnIdleSessionLeavesTheNextWindowWhole) {
    // Closing a session nudges only flushers with pending units: a nudge
    // on an empty queue would survive until the next unit arrived and
    // flush it with no window, whichever session sent it.
    Rng rng(20);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.max_wait = std::chrono::milliseconds(40);
    OracleService service(backend, config);
    Session idle = service.open_session();
    Session busy = service.open_session();
    idle.close();

    const Clock::time_point submitted = Clock::now();
    (void)busy.submit_label(tensor::Vector(net.inputs(), 0.5)).get();
    EXPECT_GE(Clock::now() - submitted, config.max_wait);
}

TEST(Service, ReplicaTelemetryAccessorsBoundsCheck) {
    Rng rng(18);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle r0 = make_oracle(net);
    CrossbarOracle r1 = make_oracle(net);
    OracleService service(std::vector<Oracle*>{&r0, &r1});
    (void)service.replica_counters(1);
    (void)service.flushed_batches(1);
    (void)service.flushed_rows(1);
    (void)service.queue_depth(1);
    EXPECT_THROW(service.replica_counters(2), ConfigError);
    EXPECT_THROW(service.flushed_batches(2), ConfigError);
    EXPECT_THROW(service.flushed_rows(2), ConfigError);
    EXPECT_THROW(service.queue_depth(2), ConfigError);
}

}  // namespace
}  // namespace xbarsec::core
