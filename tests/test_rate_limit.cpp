// TokenBucket + AdaptivePolicy semantics and their wiring into the
// OracleService admission path: deterministic refill under an injectable
// clock, all-or-nothing admission that charges nothing on refusal, the
// detector screen ahead of rate admission, token refund when a
// downstream stage refuses, suspicion-scaled noise and raw-output
// cutoffs, and the coalesced == serial bit-identity
// contract extended to rate-limited sessions (re-run per kernel variant
// via the CMake-registered XBARSEC_FORCE_KERNEL environments).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <vector>

#include "xbarsec/core/service.hpp"
#include "xbarsec/sidechannel/detector.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::core {
namespace {

// Manually advanced time source. TokenBucket::ClockFn is a plain
// function pointer (SessionConfig must stay trivially copyable), so the
// test clock lives in globals.
std::atomic<std::int64_t> g_now_ns{0};

std::chrono::nanoseconds test_clock() { return std::chrono::nanoseconds(g_now_ns.load()); }

void set_clock_ms(std::int64_t ms) { g_now_ns.store(ms * 1'000'000); }

xbar::DeviceSpec ideal_spec() {
    xbar::DeviceSpec s;
    s.g_on_max = 100e-6;
    return s;
}

nn::SingleLayerNet make_net(Rng& rng, std::size_t in = 16, std::size_t out = 3) {
    return nn::SingleLayerNet(rng, in, out, nn::Activation::Linear, nn::Loss::Mse);
}

CrossbarOracle make_oracle(const nn::SingleLayerNet& net, xbar::NonIdealityConfig nonideal = {}) {
    return CrossbarOracle(xbar::CrossbarNetwork(net, ideal_spec(), nonideal));
}

xbar::NonIdealityConfig noisy_device() {
    xbar::NonIdealityConfig c;
    c.read_noise_std = 0.05;
    return c;
}

data::Dataset make_enrollment(Rng& rng, std::size_t n = 120, std::size_t dim = 16) {
    tensor::Matrix clean = tensor::Matrix::random_uniform(rng, n, dim);
    std::vector<int> labels(n);
    for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 3);
    return data::Dataset(std::move(clean), std::move(labels), 3, data::ImageShape{4, 4, 1});
}

// ---- TokenBucket ------------------------------------------------------------

TEST(TokenBucket, StartsFullAndRefillsDeterministically) {
    set_clock_ms(0);
    TokenBucket bucket(RateLimit{100.0, 10.0}, &test_clock);
    EXPECT_DOUBLE_EQ(bucket.capacity(), 10.0);
    EXPECT_TRUE(bucket.try_acquire(10));  // the full burst, at once
    EXPECT_FALSE(bucket.try_acquire(1));

    set_clock_ms(50);  // 50 ms at 100/s = 5 tokens
    EXPECT_TRUE(bucket.try_acquire(5));
    EXPECT_FALSE(bucket.try_acquire(1));

    set_clock_ms(1'000'000);  // refill is capped at burst capacity
    EXPECT_NEAR(bucket.available(), 10.0, 1e-9);
    EXPECT_FALSE(bucket.try_acquire(11));
    EXPECT_TRUE(bucket.try_acquire(10));
}

TEST(TokenBucket, AcquireIsAllOrNothing) {
    set_clock_ms(0);
    TokenBucket bucket(RateLimit{100.0, 4.0}, &test_clock);
    EXPECT_TRUE(bucket.try_acquire(3));
    // 1 token left; a 2-row acquire must not drain the remaining one.
    EXPECT_FALSE(bucket.try_acquire(2));
    EXPECT_TRUE(bucket.try_acquire(1));
    EXPECT_THROW(bucket.acquire(1), RateLimited);
}

TEST(TokenBucket, RefundIsCappedAtCapacity) {
    set_clock_ms(0);
    TokenBucket bucket(RateLimit{100.0, 8.0}, &test_clock);
    EXPECT_TRUE(bucket.try_acquire(3));
    bucket.refund(100);  // cannot mint tokens beyond the burst
    EXPECT_NEAR(bucket.available(), 8.0, 1e-9);
}

TEST(TokenBucket, ExactBoundaryAdmitsUnderTestClock) {
    set_clock_ms(0);
    TokenBucket bucket(RateLimit{100.0, 100.0}, &test_clock);
    EXPECT_TRUE(bucket.try_acquire(100));
    set_clock_ms(1000);  // exactly 1 s at 100/s: exactly 100 tokens
    EXPECT_TRUE(bucket.try_acquire(100));
}

TEST(TokenBucket, UnlimitedRateIsRejected) {
    EXPECT_THROW(TokenBucket(RateLimit{}, &test_clock), ContractViolation);
}

// ---- AdaptivePolicy ---------------------------------------------------------

TEST(AdaptivePolicy, BandSelectionAndWarmup) {
    AdaptivePolicy policy;
    policy.min_screened = 10;
    policy.bands.push_back({0.1, 2.0, true});
    policy.bands.push_back({0.5, 8.0, false});

    // Below the warm-up window no band applies, whatever the suspicion.
    EXPECT_EQ(policy.band_for(0.9, 9), nullptr);
    // Below every band's threshold: no band.
    EXPECT_EQ(policy.band_for(0.05, 100), nullptr);
    // The last (highest) matching band wins.
    const AdaptivePolicy::Band* mild = policy.band_for(0.3, 100);
    ASSERT_NE(mild, nullptr);
    EXPECT_DOUBLE_EQ(mild->sigma_multiplier, 2.0);
    EXPECT_TRUE(mild->expose_raw_outputs);
    const AdaptivePolicy::Band* hot = policy.band_for(0.7, 100);
    ASSERT_NE(hot, nullptr);
    EXPECT_DOUBLE_EQ(hot->sigma_multiplier, 8.0);
    EXPECT_FALSE(hot->expose_raw_outputs);

    EXPECT_FALSE(AdaptivePolicy{}.enabled());
    const AdaptivePolicy escalated = AdaptivePolicy::escalate_at(0.25, 4.0);
    EXPECT_TRUE(escalated.enabled());
    EXPECT_FALSE(escalated.band_for(0.5, 100)->expose_raw_outputs);
}

TEST(AdaptivePolicy, EmptyWindowNeverSelectsABand) {
    // Regression: screened == 0 is a 0/0 suspicion. A policy configured
    // with min_screened = 0 (no warm-up) must still not pick a band off
    // an entirely empty window — the first screened query used to admit
    // under whatever band suspicion 0.0 selected.
    AdaptivePolicy policy = AdaptivePolicy::escalate_at(0.0, 4.0);
    policy.min_screened = 0;
    EXPECT_EQ(policy.band_for(0.0, 0), nullptr);
    EXPECT_EQ(policy.band_for(1.0, 0), nullptr);
    ASSERT_NE(policy.band_for(0.0, 1), nullptr);
}

// ---- rate-limited sessions --------------------------------------------------

TEST(RateLimitedSession, RefusalChargesAndCountsNothing) {
    set_clock_ms(0);
    Rng rng(1);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);

    SessionConfig limited;
    limited.rate = RateLimit{100.0, 4.0};
    limited.rate_clock = &test_clock;
    limited.budget.max_inference = 100;
    Session session = service.open_session(limited);
    const tensor::Vector u(net.inputs(), 0.5);

    for (int i = 0; i < 4; ++i) (void)session.submit_label(u).get();
    EXPECT_THROW(session.submit_label(u), RateLimited);
    // The refused submission neither counted nor charged.
    EXPECT_EQ(session.counters().inference, 4u);
    EXPECT_EQ(session.budget_spent().inference, 4u);

    set_clock_ms(20);  // 2 tokens back
    (void)session.submit_label(u).get();
    (void)session.submit_label(u).get();
    EXPECT_THROW(session.submit_label(u), RateLimited);
    EXPECT_EQ(session.counters().inference, 6u);
}

TEST(RateLimitedSession, BatchedSubmissionIsAllOrNothing) {
    set_clock_ms(0);
    Rng rng(2);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);

    SessionConfig limited;
    limited.rate = RateLimit{100.0, 8.0};
    limited.rate_clock = &test_clock;
    Session session = service.open_session(limited);
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 9, net.inputs());

    EXPECT_THROW(session.submit_labels(U), RateLimited);  // 9 rows > 8 tokens
    // The refusal consumed nothing: an 8-row batch still fits.
    (void)session.submit_labels(tensor::Matrix::random_uniform(rng, 8, net.inputs())).get();
    EXPECT_EQ(session.counters().inference, 8u);
}

TEST(RateLimitedSession, DownstreamBudgetRefusalRefundsTokens) {
    set_clock_ms(0);
    Rng rng(3);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);

    SessionConfig limited;
    limited.rate = RateLimit{100.0, 10.0};
    limited.rate_clock = &test_clock;
    limited.budget.max_inference = 2;
    Session session = service.open_session(limited);
    const tensor::Vector u(net.inputs(), 0.5);

    (void)session.submit_label(u).get();
    (void)session.submit_label(u).get();
    // Budget refuses after rate admission: the tokens must come back.
    for (int i = 0; i < 8; ++i) EXPECT_THROW(session.submit_label(u), QueryBudgetExceeded);
    // If any of those 8 refusals had leaked its token, this power query
    // (8 remaining tokens after the two charged labels) would be refused.
    for (int i = 0; i < 8; ++i) (void)session.submit_power(u).get();
    EXPECT_EQ(session.budget_spent().inference, 2u);
}

TEST(RateLimitedSession, DetectorScreenRunsBeforeRateAdmission) {
    // A row the blocking screen refuses spends no tokens, and a rate
    // refusal comes after its row was screened.
    set_clock_ms(0);
    Rng rng(13);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    const data::Dataset enrollment = make_enrollment(rng);
    const sidechannel::CurrentSignatureDetector detector(backend.hardware_for_evaluation(),
                                                         enrollment, {});
    OracleService service(backend);

    SessionConfig limited;
    limited.detector = &detector;
    limited.block_flagged = true;
    limited.rate = RateLimit{100.0, 2.0};
    limited.rate_clock = &test_clock;
    Session session = service.open_session(limited);
    const tensor::Vector attack(net.inputs(), 50.0);  // far beyond the clean envelope
    const tensor::Vector clean = enrollment.input(0);
    ASSERT_TRUE(detector.is_adversarial(attack));
    ASSERT_FALSE(detector.is_adversarial(clean));

    for (int i = 0; i < 5; ++i) EXPECT_THROW(session.submit_label(attack), QueryRefused);
    // Both tokens are still there.
    (void)session.submit_label(clean).get();
    (void)session.submit_label(clean).get();
    const std::uint64_t screened = session.screened();
    const QueryCounters counted = session.counters();
    EXPECT_THROW(session.submit_label(clean), RateLimited);
    EXPECT_EQ(session.screened(), screened + 1);  // screened, then refused
    EXPECT_EQ(session.counters().inference, counted.inference);
    EXPECT_EQ(session.counters().power, counted.power);
}

TEST(RateLimitedSession, DefaultConfigIsUnlimited) {
    Rng rng(4);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    Session session = service.open_session();
    const tensor::Vector u(net.inputs(), 0.5);
    for (int i = 0; i < 200; ++i) (void)session.submit_label(u).get();
    EXPECT_EQ(session.counters().inference, 200u);
}

TEST(RateLimitedSession, CoalescedMatchesSerialBitIdentical) {
    // The bit-identity contract extended to rate-limited sessions: a
    // rate-limited tenant's answers on noisy hardware (with per-session
    // sensing noise, where ordinal order is observable) must not depend
    // on whether its submissions coalesced into shared batches.
    set_clock_ms(0);
    Rng rng(5);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend_serial = make_oracle(net, noisy_device());
    CrossbarOracle backend_coalesced = make_oracle(net, noisy_device());
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 24, net.inputs());

    SessionConfig limited;
    limited.rate = RateLimit{1000.0, 64.0};
    limited.rate_clock = &test_clock;
    limited.power_noise_sigma = 0.05;

    std::vector<double> serial;
    {
        OracleService service(backend_serial);
        Session session = service.open_session(limited);
        for (std::size_t r = 0; r < U.rows(); ++r) {
            serial.push_back(session.submit_power(U.row(r)).get());
        }
    }
    std::vector<double> coalesced;
    {
        ServiceConfig config;
        config.max_wait = std::chrono::microseconds(50000);
        OracleService service(backend_coalesced, config);
        Session session = service.open_session(limited);
        std::vector<std::future<double>> pending;
        for (std::size_t r = 0; r < U.rows(); ++r) pending.push_back(session.submit_power(U.row(r)));
        for (auto& f : pending) coalesced.push_back(f.get());
    }
    ASSERT_EQ(serial.size(), coalesced.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], coalesced[i]) << "power answer " << i << " diverged";
    }
}

// ---- per-source buckets (attribution) ---------------------------------------

TEST(PerSourceBucket, SessionRotationRecoversThePerSessionBurst) {
    // The PR 8 benign-loss / rotation loophole, pinned as the "before"
    // numbers: under the arms race's per-session bucket {400/s, burst
    // 48}, a benign client firing its whole 192-query workload at once
    // gets exactly the 48-token burst (75% refused) — while an attacker
    // rotating sessions collects a *fresh* burst per rotation.
    set_clock_ms(0);
    Rng rng(8);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);

    SessionConfig limited;
    limited.rate = RateLimit{400.0, 48.0};
    limited.rate_clock = &test_clock;
    const tensor::Vector u(net.inputs(), 0.5);

    auto burst_through = [&](Session& session, std::size_t attempts) {
        std::size_t answered = 0;
        for (std::size_t q = 0; q < attempts; ++q) {
            try {
                (void)session.submit_label(u).get();
                ++answered;
            } catch (const RateLimited&) {
            }
        }
        return answered;
    };

    Session benign = service.open_session(limited);
    EXPECT_EQ(burst_through(benign, 192), 48u);  // 144 of 192 lost

    Session rotation_a = service.open_session(limited);
    EXPECT_EQ(burst_through(rotation_a, 48), 48u);
    rotation_a = service.open_session(limited);  // rotate: fresh bucket
    EXPECT_EQ(burst_through(rotation_a, 48), 48u);
}

TEST(PerSourceBucket, AllowanceFollowsTheSourceAcrossRotation) {
    // The attribution fix, pinned as the "after" numbers: the per-source
    // bucket {400/s, burst 256} admits the same benign 192-query
    // workload in full — and rotation draws from the *same* bucket, so
    // a rotating attacker no longer collects fresh bursts.
    set_clock_ms(0);
    Rng rng(9);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.attribution.enabled = true;
    config.attribution.source_rate = RateLimit{400.0, 256.0};
    config.attribution.source_clock = &test_clock;
    OracleService service(backend, config);

    SessionConfig tenant;  // no per-session bucket: the source owns the allowance
    tenant.source = 7;
    const tensor::Vector u(net.inputs(), 0.5);

    Session benign = service.open_session(tenant);
    for (int q = 0; q < 192; ++q) (void)benign.submit_label(u).get();
    EXPECT_EQ(benign.counters().inference, 192u);  // all answered (48 before)

    // Rotation inherits the drained bucket: 64 tokens remain of the
    // 256-token burst, frozen clock, so the 65th query is refused.
    Session rotated = service.open_session(tenant);
    for (int q = 0; q < 64; ++q) (void)rotated.submit_label(u).get();
    EXPECT_THROW(rotated.submit_label(u), RateLimited);

    // A different principal has its own allowance.
    SessionConfig other = tenant;
    other.source = 8;
    Session fresh = service.open_session(other);
    for (int q = 0; q < 256; ++q) (void)fresh.submit_label(u).get();
    EXPECT_THROW(fresh.submit_label(u), RateLimited);
}

TEST(PerSourceBucket, RefusalDownstreamRefundsTheSourceBucket) {
    set_clock_ms(0);
    Rng rng(10);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.attribution.enabled = true;
    config.attribution.source_rate = RateLimit{400.0, 10.0};
    config.attribution.source_clock = &test_clock;
    OracleService service(backend, config);

    SessionConfig tenant;
    tenant.source = 3;
    tenant.budget.max_inference = 2;
    Session session = service.open_session(tenant);
    const tensor::Vector u(net.inputs(), 0.5);

    (void)session.submit_label(u).get();
    (void)session.submit_label(u).get();
    // Budget refuses after source-rate admission: tokens must come back.
    for (int i = 0; i < 8; ++i) EXPECT_THROW(session.submit_label(u), QueryBudgetExceeded);
    for (int i = 0; i < 8; ++i) (void)session.submit_power(u).get();
    EXPECT_THROW(session.submit_power(u), RateLimited);  // 10 spent exactly
}

TEST(PerSourceBucket, SourceRefusalRefundsTheSessionBucket) {
    set_clock_ms(0);
    Rng rng(11);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.attribution.enabled = true;
    config.attribution.source_rate = RateLimit{1000.0, 100.0};
    config.attribution.source_clock = &test_clock;
    OracleService service(backend, config);

    SessionConfig tenant;
    tenant.source = 3;
    Session drain = service.open_session(tenant);
    (void)drain.submit_labels(tensor::Matrix::random_uniform(rng, 100, net.inputs())).get();

    // A session bucket that barely refills: only a refund can give its
    // tokens back.
    SessionConfig limited = tenant;
    limited.rate = RateLimit{1.0, 4.0};
    limited.rate_clock = &test_clock;
    Session session = service.open_session(limited);
    const tensor::Vector u(net.inputs(), 0.5);
    // The session bucket admits each of these; the drained source bucket
    // refuses them.
    for (int i = 0; i < 3; ++i) EXPECT_THROW(session.submit_label(u), RateLimited);

    set_clock_ms(10);  // 10 source tokens back, 0.01 session tokens
    for (int i = 0; i < 4; ++i) (void)session.submit_label(u).get();
    EXPECT_THROW(session.submit_label(u), RateLimited);  // the session's 4 spent exactly
    EXPECT_EQ(session.counters().inference, 4u);
}

TEST(PerSourceBucket, RefusedCacheHitRefundsBothBuckets) {
    set_clock_ms(0);
    Rng rng(12);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.cache.enabled = true;  // hits charge the budget by default
    config.attribution.enabled = true;
    config.attribution.source_rate = RateLimit{400.0, 10.0};
    config.attribution.source_clock = &test_clock;
    OracleService service(backend, config);

    SessionConfig tenant;
    tenant.source = 3;
    tenant.rate = RateLimit{400.0, 10.0};
    tenant.rate_clock = &test_clock;
    tenant.budget.max_inference = 1;
    Session session = service.open_session(tenant);
    const tensor::Vector u(net.inputs(), 0.5);

    (void)session.submit_label(u).get();  // a miss: spends the budget, caches the label
    // Each repeat is a cache hit that both buckets admit and the budget
    // refuses: the tokens must go back to both.
    for (int i = 0; i < 8; ++i) EXPECT_THROW(session.submit_label(u), QueryBudgetExceeded);
    EXPECT_EQ(service.cache_hits(), 8u);
    EXPECT_EQ(session.budget_spent().inference, 1u);
    EXPECT_EQ(session.counters().inference, 1u);  // the refused hits counted nothing
    for (int i = 0; i < 9; ++i) (void)session.submit_power(u).get();
    EXPECT_THROW(session.submit_power(u), RateLimited);  // 10 spent exactly, in each bucket
}

// ---- suspicion-scaled defenses ----------------------------------------------

TEST(SuspicionScaled, EscalationWithholdsRawOutputs) {
    Rng rng(6);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    const data::Dataset enrollment = make_enrollment(rng);
    const sidechannel::CurrentSignatureDetector detector(backend.hardware_for_evaluation(),
                                                         enrollment, {});
    OracleService service(backend);

    SessionConfig scaled;
    scaled.detector = &detector;
    scaled.block_flagged = false;
    scaled.adaptive = AdaptivePolicy::escalate_at(0.5, 1.0);
    scaled.adaptive.min_screened = 8;
    Session session = service.open_session(scaled);

    const tensor::Vector attack(net.inputs(), 50.0);  // far beyond the clean envelope
    ASSERT_TRUE(detector.is_adversarial(attack));
    // Below the warm-up window raw outputs flow, even for flagged inputs.
    for (int i = 0; i < 8; ++i) (void)session.submit_raw(attack).get();
    EXPECT_GE(session.flagged_fraction(), 0.5);
    // Past it, the escalated band withholds raw; labels still answer.
    EXPECT_THROW(session.submit_raw(attack), AccessDenied);
    (void)session.submit_label(attack).get();

    // A clean co-tenant under the same policy keeps raw access: the
    // suspicion that escalates is per-session, not global.
    Session benign = service.open_session(scaled);
    const tensor::Vector clean = enrollment.input(0);
    for (int i = 0; i < 12; ++i) (void)benign.submit_raw(clean).get();
}

TEST(SuspicionScaled, SigmaMultiplierScalesSessionNoise) {
    Rng rng(7);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend_a = make_oracle(net);
    CrossbarOracle backend_b = make_oracle(net);
    const data::Dataset enrollment = make_enrollment(rng);
    const sidechannel::CurrentSignatureDetector detector(backend_a.hardware_for_evaluation(),
                                                         enrollment, {});
    const tensor::Vector attack(net.inputs(), 50.0);
    const tensor::Vector probe(net.inputs(), 0.5);
    constexpr double kMult = 64.0;

    // Same noise seed, same query order; the only difference is the
    // sigma multiplier of the escalated band. The noise stream is
    // counter-based, so the deltas must scale by exactly kMult.
    auto run = [&](CrossbarOracle& backend, double multiplier) {
        OracleService service(backend);
        SessionConfig scaled;
        scaled.detector = &detector;
        scaled.power_noise_sigma = 0.01;
        scaled.noise_seed = 99;
        scaled.adaptive = AdaptivePolicy::escalate_at(0.5, multiplier, /*withhold_raw=*/false);
        scaled.adaptive.min_screened = 4;
        Session session = service.open_session(scaled);
        for (int i = 0; i < 4; ++i) (void)session.submit_label(attack).get();  // raise suspicion
        std::vector<double> readings;
        for (int i = 0; i < 6; ++i) readings.push_back(session.submit_power(probe).get());
        return readings;
    };
    const std::vector<double> base = run(backend_a, 1.0);
    const std::vector<double> scaled = run(backend_b, kMult);

    // Identical ideal hardware: the clean reading is the same, so the
    // per-query noise delta is recoverable by differencing.
    CrossbarOracle reference = make_oracle(net);
    const double clean = reference.query_power(probe);
    for (std::size_t i = 0; i < base.size(); ++i) {
        const double noise_base = base[i] - clean;
        const double noise_scaled = scaled[i] - clean;
        EXPECT_NEAR(noise_scaled, kMult * noise_base, 1e-9 + std::abs(noise_base) * 1e-6)
            << "reading " << i;
    }
}

}  // namespace
}  // namespace xbarsec::core
