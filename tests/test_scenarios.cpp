// Tests for the scenario registry and the unified runner: lookup errors,
// built-in coverage, deployment of defenses, and smoke runs of the cheap
// experiment kinds.
#include <gtest/gtest.h>

#include <algorithm>
#include <variant>

#include "xbarsec/core/scenario.hpp"

namespace xbarsec::core {
namespace {

/// A spec shrunk far below apply_smoke for unit-test budgets.
ScenarioSpec tiny(const std::string& name) {
    ScenarioSpec spec = builtin_scenarios().get(name);
    apply_smoke(spec);
    spec.load.train_count = 300;
    spec.load.test_count = 100;
    spec.victim.train.epochs = 3;
    if (auto* fig4 = std::get_if<Fig4Options>(&spec.experiment)) {
        fig4->strengths = {0, 5};
        fig4->eval_limit = 60;
    }
    return spec;
}

/// The variant index of experiment alternative T.
template <typename T>
std::size_t alternative() {
    return ExperimentOptions(std::in_place_type<T>).index();
}

TEST(ScenarioRegistry, EveryBuiltinHoldsItsFamilysExperiment) {
    // Name prefix → the experiment every entry under it must hold.
    const std::vector<std::pair<std::string, std::size_t>> families = {
        {"fig3/", alternative<Fig3Options>()},
        {"fig4/", alternative<Fig4Options>()},
        {"fig5/", alternative<Fig5Options>()},
        {"table1/", alternative<Table1Options>()},
        {"probe/", alternative<ProbeQualityOptions>()},
        {"service/mnist/hidden-attacker", alternative<MultiClientOptions>()},
        {"service/mnist/budget-exhaustion", alternative<MultiClientOptions>()},
        {"service/mnist/detector-isolation", alternative<MultiClientOptions>()},
        {"service/mnist/replica-", alternative<ReplicaSweepOptions>()},
        {"service/mnist/cache-timing", alternative<CacheTimingOptions>()},
        {"service/mnist/arms-race", alternative<ArmsRaceOptions>()},
        {"service/mnist/attribution", alternative<ArmsRaceOptions>()},
    };
    const ScenarioRegistry& registry = builtin_scenarios();
    EXPECT_EQ(registry.size(), 29u);
    std::vector<std::size_t> entries(std::variant_size_v<ExperimentOptions>, 0);
    for (const std::string& name : registry.names()) {
        const auto family =
            std::find_if(families.begin(), families.end(),
                         [&](const auto& f) { return name.rfind(f.first, 0) == 0; });
        ASSERT_NE(family, families.end()) << name << " belongs to no experiment family";
        const std::size_t held = registry.get(name).experiment.index();
        EXPECT_EQ(held, family->second) << name;
        ++entries[held];
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_GT(entries[i], 0u) << "no builtin entry holds alternative " << i;
    }
}

TEST(ScenarioRegistry, UnknownNameThrowsWithAvailableList) {
    try {
        builtin_scenarios().get("fig9/venus/tanh");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown scenario 'fig9/venus/tanh'"), std::string::npos);
        EXPECT_NE(what.find("fig4/mnist/softmax"), std::string::npos);
    }
}

TEST(ScenarioRegistry, RejectsDuplicatesAndEmptyNames) {
    ScenarioRegistry registry;
    ScenarioSpec spec;
    EXPECT_THROW(registry.add(spec), ConfigError);  // empty name
    spec.name = "x";
    registry.add(spec);
    EXPECT_THROW(registry.add(spec), ConfigError);  // duplicate
    EXPECT_EQ(registry.names().size(), 1u);
}

TEST(ScenarioRegistry, PrefixFilterIsAnchored) {
    ScenarioRegistry registry;
    for (const char* name : {"a/x", "a/y", "b/a/x"}) {
        ScenarioSpec spec;
        spec.name = name;
        registry.add(spec);
    }
    EXPECT_EQ(registry.names("a/").size(), 2u);
    EXPECT_EQ(registry.names("").size(), 3u);
}

TEST(ScenarioRunner, DeploysObfuscationLayersAndSessionPolicy) {
    ScenarioRunner runner;
    DeployedScenario d = runner.deploy(tiny("probe/mnist/defended"));
    EXPECT_EQ(d.spec().defenses.size(), 3u);
    // The random dummies are set on the device: its power reading carries
    // their load on top of the clean Eq. 5 current...
    const tensor::Vector u(784, 0.1);
    const xbar::CrossbarNetwork& hardware = d.backend().hardware_for_evaluation();
    const double clean =
        hardware.total_current(u) / hardware.crossbar().program().weight_scale;
    EXPECT_GT(d.backend().query_power(u), clean);
    d.backend().reset_counters();
    EXPECT_EQ(d.session().inputs(), 784u);
    // One query through the session is counted once, at the backend.
    (void)d.session().query_label(tensor::Vector(784, 0.1));
    EXPECT_EQ(d.backend().counters().inference, 1u);
    // ...and the power budget is charged to the default session.
    (void)d.session().query_power(tensor::Vector(784, 0.1));
    EXPECT_EQ(d.session().budget_spent().power, 1u);
}

TEST(ScenarioRunner, RunsFig4ScenarioEndToEnd) {
    ScenarioRunner runner;
    const ScenarioOutcome outcome = runner.run(tiny("fig4/mnist/softmax"));
    EXPECT_EQ(outcome.name, "fig4/mnist/softmax");
    EXPECT_EQ(outcome.label, "MNIST-like/softmax");
    ASSERT_EQ(outcome.tables.size(), 1u);
    EXPECT_EQ(outcome.tables[0].second.rows(), 2u);   // two strengths
    EXPECT_EQ(outcome.tables[0].second.columns(), 6u);
    EXPECT_GT(outcome.metrics.at("clean_accuracy"), 0.5);
    // The probe is the only attacker cost in the direct-evaluation mode.
    EXPECT_EQ(outcome.attacker_cost.power, 784u);
    EXPECT_EQ(outcome.attacker_cost.inference, 0u);
}

TEST(ScenarioRunner, DefendedProbeDegradesRecovery) {
    ScenarioRunner runner;
    const ScenarioOutcome clean = runner.run(tiny("probe/mnist/undefended"));
    const ScenarioOutcome defended = runner.run(tiny("probe/mnist/defended"));
    EXPECT_LT(clean.metrics.at("l1_relative_error"), 1e-9);
    EXPECT_DOUBLE_EQ(clean.metrics.at("topk_agreement"), 1.0);
    EXPECT_GT(defended.metrics.at("l1_relative_error"), 0.1);
    EXPECT_LT(defended.metrics.at("topk_agreement"), 0.9);
}

TEST(ScenarioRunner, DetectorScenarioReportsFlaggedFraction) {
    ScenarioRunner runner;
    const ScenarioOutcome outcome = runner.run(tiny("fig4/mnist/softmax-detected"));
    ASSERT_EQ(outcome.metrics.count("detector_flagged_fraction"), 1u);
    ASSERT_EQ(outcome.metrics.count("detector_screened"), 1u);
    // Evaluation ran through the oracle: inference queries were counted.
    EXPECT_GT(outcome.attacker_cost.inference, 0u);
}

TEST(ScenarioRunner, Fig3ScenarioEmitsGridsAndNotes) {
    ScenarioRunner runner;
    const ScenarioOutcome outcome = runner.run(tiny("fig3/mnist/softmax"));
    ASSERT_EQ(outcome.grids.size(), 2u);
    EXPECT_EQ(outcome.grids[0].map.size(), 784u);
    EXPECT_EQ(outcome.notes.size(), 2u);
    EXPECT_GT(outcome.metrics.at("correlation"), 0.2);
}

TEST(ScenarioRunner, RejectsUnsupportedDefenseCombinations) {
    ScenarioRunner runner;
    ScenarioSpec spec = tiny("table1/mnist/softmax");
    DefenseSpec defense;
    defense.kind = DefenseSpec::Kind::NoisyPower;
    spec.defenses.push_back(defense);
    EXPECT_THROW(runner.run(spec), ConfigError);

    ScenarioSpec fig5_spec = tiny("fig5/mnist/label");
    DefenseSpec detector;
    detector.kind = DefenseSpec::Kind::Detector;
    fig5_spec.defenses.push_back(detector);
    EXPECT_THROW(runner.run(fig5_spec), ConfigError);

    // Tenants open their own sessions, so a policy defense on a
    // multi-client spec would apply to none of them.
    ScenarioSpec multiclient = tiny("service/mnist/hidden-attacker");
    multiclient.defenses.push_back(defense);
    EXPECT_THROW(runner.run(multiclient), ConfigError);

    // One session holds one budget: a second budget entry cannot compose.
    // No training set, so the list must be rejected before any data is
    // loaded or any victim is trained.
    ScenarioSpec twice = tiny("probe/mnist/defended");
    twice.load.train_count = 0;
    DefenseSpec budget;
    budget.kind = DefenseSpec::Kind::QueryBudget;
    budget.budget.max_power = 1;
    twice.defenses.push_back(budget);
    EXPECT_THROW(runner.deploy(twice), ConfigError);

    ScenarioSpec fig5_twice = tiny("fig5/mnist/label");
    fig5_twice.load.train_count = 0;
    fig5_twice.defenses = {defense, defense};
    EXPECT_THROW(runner.run(fig5_twice), ConfigError);

    // Two obfuscation entries of one kind would draw one seeded stream
    // twice: one layer at twice the magnitude, not two sources.
    ScenarioSpec dummies_twice = tiny("probe/mnist/defended");
    dummies_twice.load.train_count = 0;
    DefenseSpec dummies;
    dummies.kind = DefenseSpec::Kind::RandomDummy;
    dummies_twice.defenses.push_back(dummies);
    EXPECT_THROW(runner.deploy(dummies_twice), ConfigError);

    ScenarioSpec dither_twice = tiny("probe/mnist/defended");
    dither_twice.load.train_count = 0;
    DefenseSpec dither;
    dither.kind = DefenseSpec::Kind::DitherPower;
    dither_twice.defenses.push_back(dither);
    dither_twice.defenses.push_back(dither);
    EXPECT_THROW(runner.deploy(dither_twice), ConfigError);
}

TEST(ScenarioSmoke, ShrinksSweeps) {
    ScenarioSpec spec = builtin_scenarios().get("fig5/mnist/label");
    apply_smoke(spec);
    EXPECT_EQ(spec.load.train_count, 400u);
    const auto& fig5 = std::get<Fig5Options>(spec.experiment);
    EXPECT_EQ(fig5.runs, 2u);
    EXPECT_EQ(fig5.query_counts.size(), 2u);
}

}  // namespace
}  // namespace xbarsec::core
