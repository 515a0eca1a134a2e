// Arms-race layer: AdaptiveAttacker strategy behaviour against live
// OracleService deployments, and the registry wiring for the
// strategy × policy sweep ("service/mnist/arms-race"). Kept at toy
// scale — the full matrix runs in bench_arms.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <variant>

#include "xbarsec/attack/adaptive.hpp"
#include "xbarsec/core/scenario.hpp"
#include "xbarsec/core/service.hpp"

namespace xbarsec::attack {
namespace {

using core::OracleService;
using core::RateLimit;
using core::SessionConfig;

xbar::DeviceSpec ideal_spec() {
    xbar::DeviceSpec s;
    s.g_on_max = 100e-6;
    return s;
}

struct Fixture {
    Rng rng{11};
    nn::SingleLayerNet net{rng, 10, 3, nn::Activation::Linear, nn::Loss::Mse};
    core::CrossbarOracle backend{xbar::CrossbarNetwork(net, ideal_spec()), {}};
    OracleService service{backend};
    tensor::Matrix probes{tensor::Matrix::random_uniform(rng, 48, 10)};
    tensor::Matrix camouflage{tensor::Matrix::random_uniform(rng, 16, 10)};
};

AdaptiveAttackerConfig campaign(AttackerStrategy strategy, std::size_t planned) {
    AdaptiveAttackerConfig c;
    c.strategy = strategy;
    c.planned_queries = planned;
    c.seed = 17;
    return c;
}

TEST(AdaptiveAttacker, StrategyNamesRoundTrip) {
    EXPECT_STREQ(to_string(AttackerStrategy::Fixed), "fixed");
    EXPECT_STREQ(to_string(AttackerStrategy::Throttle), "throttle");
    EXPECT_STREQ(to_string(AttackerStrategy::Rotate), "rotate");
    EXPECT_STREQ(to_string(AttackerStrategy::Spread), "spread");
    EXPECT_STREQ(to_string(AttackerStrategy::Forge), "forge");
}

TEST(AdaptiveAttacker, FixedCollectsEverythingOnAnOpenService) {
    Fixture f;
    AdaptiveAttackerOutcome out =
        AdaptiveAttacker(f.service, SessionConfig{}, campaign(AttackerStrategy::Fixed, 32))
            .run(f.probes, f.camouflage);
    EXPECT_EQ(out.collected, 32u);
    EXPECT_EQ(out.refused, 0u);
    EXPECT_EQ(out.sessions_used, 1u);
    EXPECT_EQ(out.data.size(), out.collected);
    EXPECT_EQ(out.data.power.size(), out.collected);
}

TEST(AdaptiveAttacker, FixedLosesSamplesUnderATightBucket) {
    Fixture f;
    SessionConfig tenant;
    // A few tokens of burst and a slow refill: the blasting attacker
    // drains the bucket almost immediately and every later query is a
    // lost sample (the bench's fixed/rate cell, at toy scale).
    tenant.rate = RateLimit{50.0, 6.0};
    AdaptiveAttackerOutcome out =
        AdaptiveAttacker(f.service, tenant, campaign(AttackerStrategy::Fixed, 64))
            .run(f.probes, f.camouflage);
    EXPECT_LT(out.collected, 64u);
    EXPECT_GT(out.refused, 0u);
    EXPECT_GT(out.rate_hits, 0u);
    EXPECT_EQ(out.collected + out.refused, 64u);
}

TEST(AdaptiveAttacker, ThrottleRecoversEverySampleBelowTheRefillRate) {
    Fixture f;
    SessionConfig tenant;
    tenant.rate = RateLimit{2000.0, 4.0};
    AdaptiveAttackerConfig config = campaign(AttackerStrategy::Throttle, 24);
    config.backoff = std::chrono::microseconds(200);
    AdaptiveAttackerOutcome out =
        AdaptiveAttacker(f.service, tenant, config).run(f.probes, f.camouflage);
    EXPECT_EQ(out.collected, 24u);
    EXPECT_EQ(out.refused, 0u);
    EXPECT_GT(out.rate_hits, 0u) << "a 4-token burst cannot cover 24 samples without waiting";
}

TEST(AdaptiveAttacker, RotateOpensAFreshSessionEveryWindow) {
    Fixture f;
    AdaptiveAttackerConfig config = campaign(AttackerStrategy::Rotate, 33);
    config.rotate_after = 8;
    AdaptiveAttackerOutcome out =
        AdaptiveAttacker(f.service, SessionConfig{}, config).run(f.probes, f.camouflage);
    EXPECT_EQ(out.collected, 33u);
    EXPECT_GE(out.sessions_used, 4u);
    EXPECT_GE(f.service.sessions_opened(), out.sessions_used);
}

TEST(AdaptiveAttacker, SpreadTracksSuspicionAndKeepsCollecting) {
    Fixture f;
    AdaptiveAttackerConfig config = campaign(AttackerStrategy::Spread, 24);
    config.rotate_after = 8;
    config.camouflage = 0.5;
    AdaptiveAttackerOutcome out =
        AdaptiveAttacker(f.service, SessionConfig{}, config).run(f.probes, f.camouflage);
    EXPECT_EQ(out.collected, 24u);
    EXPECT_GE(out.sessions_used, 2u);
    EXPECT_GE(out.max_flagged_fraction, 0.0);
    EXPECT_LE(out.max_flagged_fraction, 1.0);
}

TEST(ArmsRaceScenario, RegistryEntryAndDefaultsAreWellFormed) {
    core::ScenarioSpec spec = core::builtin_scenarios().get("service/mnist/arms-race");
    ASSERT_TRUE(std::holds_alternative<core::ArmsRaceOptions>(spec.experiment));

    const auto& ar = std::get<core::ArmsRaceOptions>(spec.experiment);
    EXPECT_EQ(ar.strategies.size(), 4u);
    ASSERT_EQ(ar.defenses.size(), 3u);
    EXPECT_EQ(ar.defenses[0].name, "open");
    EXPECT_TRUE(ar.defenses[0].rate.unlimited());
    EXPECT_FALSE(ar.defenses[0].suspicion_scaled);
    EXPECT_FALSE(ar.defenses[1].rate.unlimited());
    EXPECT_TRUE(ar.defenses[2].suspicion_scaled);
    EXPECT_GT(ar.probe_strength, 1.0) << "probes must escape the detector's clean envelope";
    EXPECT_GT(ar.attacker.planned_queries, 0u);
    EXPECT_FALSE(ar.adaptive.bands.empty());
}

}  // namespace
}  // namespace xbarsec::attack
