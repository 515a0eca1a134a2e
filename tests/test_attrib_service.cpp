// OracleService wiring of the cross-session attribution tier: the
// off-by-default contract (disabled accessors, bit-identical answers),
// campaign pooling that survives session rotation, query-overlap
// clustering across forged admission identities, zero benign false
// merges, the deployment-level alert's per-query escalation, the
// admission orderings around the engine feed, and the accessor error
// contracts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "xbarsec/core/service.hpp"
#include "xbarsec/sidechannel/detector.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::core {
namespace {

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

/// A distinct suspicious-amplitude probe row (|value| > 1.5 trips the
/// engine's amplitude heuristic without needing a detector).
tensor::Vector probe_row(std::size_t inputs, std::size_t i) {
    tensor::Vector u(inputs, 0.5);
    u[i % inputs] = 3.0 + static_cast<double>(i);
    return u;
}

// ---- off by default ---------------------------------------------------------

TEST(AttributionOff, AccessorsReportDisabledAndKeyedCallsThrow) {
    Rng rng(1);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);

    EXPECT_FALSE(service.attribution_enabled());
    EXPECT_FALSE(service.attribution_alert());
    EXPECT_EQ(service.attribution_source_count(), 0u);
    EXPECT_TRUE(service.attribution_sources().empty());
    EXPECT_EQ(service.attribution_campaign_count(), 0u);
    EXPECT_TRUE(service.attribution_campaigns().empty());
    EXPECT_EQ(service.attribution_snapshot(), "{}");
    EXPECT_THROW(service.attribution_source_counters(1), ConfigError);
    EXPECT_THROW(service.attribution_campaign_of(1), ConfigError);
}

TEST(AttributionOff, EnablingAttributionDoesNotPerturbAnswers) {
    // The off-by-default contract, read the other way: for benign
    // traffic on noisy hardware with session sensing noise, the
    // attribution-on service must answer bit-identically to the
    // attribution-free one — observation is bookkeeping, not a filter.
    Rng rng(2);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend_off = make_oracle(net, noisy_device());
    CrossbarOracle backend_on = make_oracle(net, noisy_device());
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 16, net.inputs());

    auto run = [&U](CrossbarOracle& backend, bool attribution) {
        ServiceConfig config;
        config.attribution.enabled = attribution;
        OracleService service(backend, config);
        SessionConfig tenant;
        tenant.power_noise_sigma = 0.05;
        tenant.noise_seed = 7;
        tenant.source = attribution ? 11 : 0;
        Session session = service.open_session(tenant);
        std::vector<double> out;
        for (std::size_t r = 0; r < U.rows(); ++r) {
            out.push_back(static_cast<double>(session.submit_label(U.row(r)).get()));
            out.push_back(session.submit_power(U.row(r)).get());
        }
        return out;
    };

    const std::vector<double> off = run(backend_off, false);
    const std::vector<double> on = run(backend_on, true);
    ASSERT_EQ(off.size(), on.size());
    for (std::size_t i = 0; i < off.size(); ++i) {
        EXPECT_EQ(off[i], on[i]) << "answer " << i << " diverged";
    }
}

// ---- per-source pooling across rotation -------------------------------------

TEST(AttributionService, SourcesAndCampaignsAreTracked) {
    Rng rng(3);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.attribution.enabled = true;
    OracleService service(backend, config);

    SessionConfig tenant;
    tenant.source = 5;
    Session a = service.open_session(tenant);
    Session b = service.open_session(tenant);
    tenant.source = 6;
    Session c = service.open_session(tenant);

    const tensor::Vector u(net.inputs(), 0.5);
    for (int i = 0; i < 3; ++i) (void)a.submit_label(u).get();
    (void)c.submit_label(u).get();

    EXPECT_TRUE(service.attribution_enabled());
    EXPECT_EQ(service.attribution_source_count(), 2u);
    EXPECT_EQ(service.attribution_sources(), (std::vector<attrib::SourceId>{5, 6}));
    EXPECT_EQ(service.attribution_source_counters(5).sessions, 2u);
    EXPECT_EQ(service.attribution_source_counters(5).screened, 3u);

    // Same source ⇒ one campaign; the other principal stays apart.
    EXPECT_EQ(service.attribution_campaign_count(), 2u);
    EXPECT_EQ(service.attribution_campaign_of(a.id()).sessions, 2u);
    EXPECT_EQ(service.attribution_campaign_of(b.id()).id, service.attribution_campaign_of(a.id()).id);
    EXPECT_EQ(service.attribution_campaign_of(c.id()).sessions, 1u);
}

TEST(AttributionService, CampaignSuspicionFollowsTheSourceAcrossRotation) {
    // The rotation loophole, closed: a session that earned an escalated
    // adaptive band cannot shed it by reopening — the fresh session
    // inherits its campaign's pooled screened/flagged window, so its
    // *first* raw query is already withheld. The control session shows
    // the same policy without attribution resets on rotation.
    Rng rng(4);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    const data::Dataset enrollment = make_enrollment(rng);
    const sidechannel::CurrentSignatureDetector detector(backend.hardware_for_evaluation(),
                                                         enrollment, {});
    const tensor::Vector attack(net.inputs(), 50.0);
    ASSERT_TRUE(detector.is_adversarial(attack));

    SessionConfig scaled;
    scaled.detector = &detector;
    scaled.block_flagged = false;
    scaled.adaptive = AdaptivePolicy::escalate_at(0.2, 4.0);
    scaled.adaptive.min_screened = 8;
    scaled.source = 7;

    {
        OracleService control(backend);
        Session first = control.open_session(scaled);
        for (int i = 0; i < 8; ++i) (void)first.submit_raw(attack).get();
        EXPECT_THROW(first.submit_raw(attack), AccessDenied);  // escalated
        first.close();
        Session rotated = control.open_session(scaled);
        (void)rotated.submit_raw(attack).get();  // rotation resets the window
    }
    {
        ServiceConfig config;
        config.attribution.enabled = true;
        OracleService service(backend, config);
        Session first = service.open_session(scaled);
        for (int i = 0; i < 8; ++i) (void)first.submit_raw(attack).get();
        EXPECT_THROW(first.submit_raw(attack), AccessDenied);
        first.close();
        Session rotated = service.open_session(scaled);
        EXPECT_THROW(rotated.submit_raw(attack), AccessDenied);  // pooled window
        (void)rotated.submit_label(attack).get();  // degraded channel still answers
        EXPECT_GE(service.attribution_campaign_of(rotated.id()).sessions, 2u);
    }
}

// ---- query-overlap clustering -----------------------------------------------

TEST(AttributionService, ReplayedProbesCollapseForgedSourcesIntoOneCampaign) {
    // Forging a fresh SourceId per rotation defeats identity pooling —
    // but the forged session replays the campaign's probe set, and
    // repeat_overlap distinct replays union-find it back in.
    Rng rng(5);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.attribution.enabled = true;
    OracleService service(backend, config);

    SessionConfig forged;
    forged.source = 100;
    Session original = service.open_session(forged);
    for (std::size_t i = 0; i < 5; ++i) (void)original.submit_label(probe_row(net.inputs(), i)).get();
    original.close();

    forged.source = 200;  // "new customer"
    Session replay = service.open_session(forged);
    EXPECT_EQ(service.attribution_campaign_count(), 2u);
    for (std::size_t i = 0; i < 3; ++i) (void)replay.submit_label(probe_row(net.inputs(), i)).get();

    EXPECT_EQ(service.attribution_campaign_count(), 1u);
    const attrib::CampaignCounters campaign = service.attribution_campaign_of(replay.id());
    EXPECT_EQ(campaign.sessions, 2u);
    EXPECT_EQ(campaign.sources, 2u);  // both forged identities, attributed
    EXPECT_EQ(campaign.screened, 8u);
}

TEST(AttributionService, BenignTenantsSharingInputsNeverMerge) {
    // Two honest tenants scoring the same public dataset: identical
    // content hashes, but clean rows never enter sketches or the index,
    // so no overlap evidence can accumulate — false merges stay at zero.
    Rng rng(6);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.attribution.enabled = true;
    OracleService service(backend, config);
    const tensor::Matrix shared = tensor::Matrix::random_uniform(rng, 40, net.inputs());

    SessionConfig tenant;
    std::vector<std::uint64_t> ids;
    for (const attrib::SourceId source : {1000ull, 1001ull}) {
        tenant.source = source;
        Session session = service.open_session(tenant);
        ids.push_back(session.id());
        for (std::size_t r = 0; r < shared.rows(); ++r) {
            (void)session.submit_label(shared.row(r)).get();
        }
        session.close();  // the close-time sketch merge pass must not fire
    }

    EXPECT_EQ(service.attribution_campaign_count(), 2u);
    for (const std::uint64_t id : ids) {
        EXPECT_EQ(service.attribution_campaign_of(id).sessions, 1u);
        EXPECT_EQ(service.attribution_campaign_of(id).sketch_hashes, 0u);
    }
    EXPECT_FALSE(service.attribution_alert());
}

// ---- deployment alert -------------------------------------------------------

TEST(AttributionService, DeploymentAlertEscalatesSuspiciousQueriesPerQuery) {
    // Once the service-wide probe-population window trips, suspicious
    // submissions are escalated per-query — including a brand-new
    // session's very first one, which no rotation cadence can duck.
    // Clean queries keep flowing: the alert is not an outage.
    Rng rng(7);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.attribution.enabled = true;
    config.attribution.engine.window_events = 32;
    config.attribution.engine.alert_min_screened = 8;
    OracleService service(backend, config);

    SessionConfig anonymous;  // source 0: only the probe population betrays it
    Session prober = service.open_session(anonymous);
    for (std::size_t i = 0; i < 8; ++i) (void)prober.submit_label(probe_row(net.inputs(), i)).get();
    EXPECT_TRUE(service.attribution_alert());

    Session fresh = service.open_session(anonymous);
    EXPECT_THROW(fresh.submit_raw(probe_row(net.inputs(), 99)), AccessDenied);
    (void)fresh.submit_raw(tensor::Vector(net.inputs(), 0.5)).get();  // clean raw flows
    (void)fresh.submit_label(probe_row(net.inputs(), 99)).get();      // degraded channel
}

TEST(AttributionService, QuarantinedCampaignsAreRefusedEverythingAcrossRotation) {
    // The quarantine rung: per-query escalation degrades probes but
    // still answers in-distribution traffic, which is exactly what a
    // camouflaging extractor distills from. A refuse_queries band keyed
    // on campaign-pooled suspicion denies the attributed campaign *all*
    // service — clean rows included, rotated sessions included.
    Rng rng(9);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    const data::Dataset enrollment = make_enrollment(rng);
    const sidechannel::CurrentSignatureDetector detector(backend.hardware_for_evaluation(),
                                                         enrollment, {});
    const tensor::Vector attack(net.inputs(), 50.0);
    const tensor::Vector clean(net.inputs(), 0.5);
    ASSERT_TRUE(detector.is_adversarial(attack));

    SessionConfig scaled;
    scaled.detector = &detector;
    scaled.block_flagged = false;
    scaled.adaptive = AdaptivePolicy::escalate_at(0.2, 4.0);
    scaled.adaptive.min_screened = 8;
    AdaptivePolicy::Band quarantine;
    quarantine.min_suspicion = 0.5;
    quarantine.sigma_multiplier = 4.0;
    quarantine.expose_raw_outputs = false;
    quarantine.refuse_queries = true;
    scaled.adaptive.bands.push_back(quarantine);
    scaled.source = 7;

    ServiceConfig config;
    config.attribution.enabled = true;
    OracleService service(backend, config);

    Session first = service.open_session(scaled);
    for (int i = 0; i < 7; ++i) (void)first.submit_label(attack).get();
    // The 8th probe crosses min_screened with the row it just screened
    // (refusals run post-observation): suspicion 1.0 quarantines it.
    EXPECT_THROW(first.submit_label(attack), QueryRefused);
    EXPECT_THROW(first.submit_label(clean), QueryRefused);  // clean row, still refused
    first.close();

    Session rotated = service.open_session(scaled);
    EXPECT_THROW(rotated.submit_label(clean), QueryRefused);  // pooled: first query refused
    EXPECT_THROW(rotated.submit_power(clean), QueryRefused);  // every channel

    SessionConfig benign_tenant = scaled;
    benign_tenant.source = 8;
    Session benign = service.open_session(benign_tenant);
    (void)benign.submit_label(clean).get();  // other principals are untouched
}

// ---- admission ordering -----------------------------------------------------

TEST(AttributionService, BlockingRefusalMidUnitFeedsOnlyTheRowsBeforeIt) {
    // A blocking screen refuses row 3 of a 5-row unit: the engine has
    // seen rows 0-2 of it, as a row-by-row feed would have, and neither
    // the refused row nor the one after it.
    Rng rng(12);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    const data::Dataset enrollment = make_enrollment(rng);
    const sidechannel::CurrentSignatureDetector detector(backend.hardware_for_evaluation(),
                                                         enrollment, {});
    const tensor::Vector attack(net.inputs(), 50.0);
    ASSERT_TRUE(detector.is_adversarial(attack));

    ServiceConfig config;
    config.attribution.enabled = true;
    OracleService service(backend, config);
    SessionConfig blocking;
    blocking.detector = &detector;
    blocking.block_flagged = true;
    blocking.source = 7;
    Session session = service.open_session(blocking);

    tensor::Matrix U(5, net.inputs());
    for (std::size_t r = 0; r < U.rows(); ++r) {
        // Even enrolment rows fit the envelopes, so they are never flagged.
        const tensor::Vector row = r == 3 ? attack : enrollment.input(2 * r);
        std::copy(row.begin(), row.end(), U.row_span(r).begin());
    }
    EXPECT_THROW(session.submit_labels(U), QueryRefused);
    const attrib::SourceCounters counters = service.attribution_source_counters(7);
    EXPECT_EQ(counters.screened, 3u);
    EXPECT_EQ(counters.flagged, 0u);
    EXPECT_EQ(session.screened(), 4u);  // the screen itself counts the refused row
    EXPECT_EQ(session.flagged(), 1u);
    EXPECT_EQ(session.counters().inference, 0u);
}

TEST(AttributionService, RawCutoffReadsTheBandBeforeTheUnitIsObserved) {
    // The raw-output cutoff depends only on past behaviour: a raw
    // submission whose own probe row lifts the campaign to the band's
    // threshold is still answered, and the next raw submission is not.
    Rng rng(13);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.attribution.enabled = true;
    config.attribution.engine.alert_min_screened = 1u << 20;  // no deployment alert
    OracleService service(backend, config);
    SessionConfig tenant;
    tenant.adaptive = AdaptivePolicy::escalate_at(0.5, 2.0, /*withhold_raw=*/true);
    tenant.adaptive.min_screened = 4;
    tenant.source = 7;
    Session session = service.open_session(tenant);

    for (std::size_t i = 0; i < 4; ++i) {
        const tensor::Vector clean(net.inputs(), 0.1 * static_cast<double>(i));
        (void)session.submit_label(clean).get();
    }
    for (std::size_t i = 0; i < 3; ++i) {
        (void)session.submit_label(probe_row(net.inputs(), i)).get();
    }
    EXPECT_EQ(service.attribution_campaign_of(session.id()).suspicious, 3u);  // 3/7 < 0.5

    (void)session.submit_raw(probe_row(net.inputs(), 3)).get();  // 4/8 only once observed
    EXPECT_EQ(service.attribution_campaign_of(session.id()).suspicious, 4u);
    EXPECT_THROW(session.submit_raw(tensor::Vector(net.inputs(), 0.5)), AccessDenied);
    (void)session.submit_label(tensor::Vector(net.inputs(), 0.5)).get();  // labels still flow
}

TEST(AttributionService, ProbationFreezesSourcesFirstSeenDuringAnAlert) {
    // The registration freeze: while the deployment alert is hot, a
    // never-before-seen SourceId gets nothing — even clean queries —
    // so forging a fresh identity per rotation buys zero service. The
    // freeze is alert-gated: once the probe population drains out of
    // the window, the marked source is served again.
    Rng rng(10);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.attribution.enabled = true;
    config.attribution.engine.window_events = 32;
    config.attribution.engine.alert_min_screened = 8;
    OracleService service(backend, config);
    const tensor::Vector clean(net.inputs(), 0.5);

    SessionConfig established;
    established.source = 21;  // onboarded before any alert
    Session veteran = service.open_session(established);
    (void)veteran.submit_label(clean).get();

    Session prober = service.open_session({});  // anonymous probe population
    for (std::size_t i = 0; i < 8; ++i) (void)prober.submit_label(probe_row(net.inputs(), i)).get();
    ASSERT_TRUE(service.attribution_alert());

    SessionConfig forged;
    forged.source = 22;  // first seen mid-alert
    Session frozen = service.open_session(forged);
    EXPECT_THROW(frozen.submit_label(clean), QueryRefused);
    EXPECT_THROW(frozen.submit_raw(clean), QueryRefused);
    (void)veteran.submit_label(clean).get();  // established sources keep flowing
    Session anon = service.open_session({});
    (void)anon.submit_label(clean).get();  // anonymous is exempt (escalation covers it)

    // Drain the window with clean traffic: the alert cools and the
    // freeze lifts (the mark stays — a re-trip would resume it).
    for (int i = 0; i < 32; ++i) (void)veteran.submit_label(clean).get();
    ASSERT_FALSE(service.attribution_alert());
    (void)frozen.submit_label(clean).get();
}

TEST(AttributionService, IdentityChurnTripsTheRotationTax) {
    // Forging a fresh SourceId per session is itself the fingerprint:
    // enough first-time sources inside the churn window freeze every
    // later registration, with no detector and no probe-shaped traffic
    // required. Rotation under an established identity never trips it.
    Rng rng(11);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.attribution.enabled = true;
    config.attribution.engine.churn_fresh_sources = 4;
    OracleService service(backend, config);
    const tensor::Vector clean(net.inputs(), 0.5);

    for (std::uint64_t s = 0; s < 3; ++s) {
        SessionConfig tenant;
        tenant.source = 101 + s;
        Session session = service.open_session(tenant);
        (void)session.submit_label(clean).get();  // pre-trip onboarding flows
        session.close();
    }
    SessionConfig forged;
    forged.source = 104;  // the fourth fresh source trips the window
    Session frozen = service.open_session(forged);
    EXPECT_THROW(frozen.submit_label(clean), QueryRefused);
    EXPECT_NE(service.attribution_snapshot().find("\"churn_alert\":true"), std::string::npos);

    SessionConfig rotated;  // an established principal reopening is not churn
    rotated.source = 101;
    Session honest = service.open_session(rotated);
    (void)honest.submit_label(clean).get();
}

// ---- accessor contracts when enabled ----------------------------------------

TEST(AttributionService, KeyedAccessorsThrowOnUnknownKeysAndSnapshotIsLive) {
    Rng rng(8);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.attribution.enabled = true;
    OracleService service(backend, config);

    SessionConfig tenant;
    tenant.source = 42;
    Session session = service.open_session(tenant);
    (void)session.submit_label(tensor::Vector(net.inputs(), 0.5)).get();

    EXPECT_THROW(service.attribution_source_counters(12345), ConfigError);
    EXPECT_THROW(service.attribution_campaign_of(999999), ConfigError);
    EXPECT_NO_THROW(service.attribution_source_counters(42));
    EXPECT_NO_THROW(service.attribution_campaign_of(session.id()));

    const std::string json = service.attribution_snapshot();
    EXPECT_NE(json.find("\"alert\":false"), std::string::npos);
    EXPECT_NE(json.find("\"source\":42"), std::string::npos);
}

TEST(AttributionService, RejectsDegenerateEngineConfigs) {
    Rng rng(9);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.attribution.enabled = true;
    config.attribution.engine.window_events = 0;
    EXPECT_THROW(OracleService(backend, config), ConfigError);
    config.attribution.engine = {};
    config.attribution.engine.sketch_k = 0;
    EXPECT_THROW(OracleService(backend, config), ConfigError);
}

}  // namespace
}  // namespace xbarsec::core
