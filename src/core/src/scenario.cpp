#include "xbarsec/core/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <thread>

#include "xbarsec/attack/evaluate.hpp"
#include "xbarsec/attack/surrogate.hpp"
#include "xbarsec/core/queries.hpp"
#include "xbarsec/core/report.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::core {

std::string to_string(DatasetKind kind) {
    switch (kind) {
        case DatasetKind::MnistLike: return "MNIST-like";
        case DatasetKind::Cifar10Like: return "CIFAR-10-like";
    }
    return "?";
}

std::string to_string(ReplicaSweepOptions::Axis axis) {
    switch (axis) {
        case ReplicaSweepOptions::Axis::ReplicaCount: return "replica-count";
        case ReplicaSweepOptions::Axis::Routing: return "routing";
    }
    return "?";
}

std::string to_string(MultiClientOptions::Mode mode) {
    switch (mode) {
        case MultiClientOptions::Mode::HiddenAttacker: return "hidden-attacker";
        case MultiClientOptions::Mode::BudgetExhaustion: return "budget-exhaustion";
        case MultiClientOptions::Mode::DetectorIsolation: return "detector-isolation";
    }
    return "?";
}

void apply_smoke(ScenarioSpec& spec) {
    spec.load.train_count = 400;
    spec.load.test_count = 120;
    spec.victim.train.epochs = 4;
    for (DefenseSpec& d : spec.defenses) {
        d.detector_enrollment = std::min<std::size_t>(d.detector_enrollment, 200);
    }
    if (auto* fig4 = std::get_if<Fig4Options>(&spec.experiment)) {
        fig4->strengths = {0, 5, 10};
        fig4->eval_limit = 80;
    } else if (auto* fig5 = std::get_if<Fig5Options>(&spec.experiment)) {
        fig5->runs = 2;
        fig5->query_counts = {10, 100};
        fig5->lambdas = {0.0, 0.005};
        fig5->eval_limit = 60;
    } else if (auto* table1 = std::get_if<Table1Options>(&spec.experiment)) {
        table1->runs = 2;
    } else if (auto* mc = std::get_if<MultiClientOptions>(&spec.experiment)) {
        mc->benign_clients = std::min<std::size_t>(mc->benign_clients, 2);
        mc->benign_queries = std::min<std::size_t>(mc->benign_queries, 48);
        mc->attack_queries = std::min<std::size_t>(mc->attack_queries, 16);
        mc->detector_enrollment = std::min<std::size_t>(mc->detector_enrollment, 200);
    } else if (auto* rs = std::get_if<ReplicaSweepOptions>(&spec.experiment)) {
        rs->queries = std::min<std::size_t>(rs->queries, 96);
        rs->eval_limit = std::min<std::size_t>(rs->eval_limit, 60);
        if (rs->replica_counts.size() > 2) rs->replica_counts = {1, 2};
        rs->routing_replicas = std::min<std::size_t>(rs->routing_replicas, 2);
    } else if (auto* ct = std::get_if<CacheTimingOptions>(&spec.experiment)) {
        ct->candidate_pool = std::min<std::size_t>(ct->candidate_pool, 24);
        ct->probe_repeats = std::min<std::size_t>(ct->probe_repeats, 2);
    } else if (auto* ar = std::get_if<ArmsRaceOptions>(&spec.experiment)) {
        ar->attacker.planned_queries = std::min<std::size_t>(ar->attacker.planned_queries, 96);
        ar->attacker.rotate_after = std::min<std::size_t>(ar->attacker.rotate_after, 32);
        ar->benign_clients = std::min<std::size_t>(ar->benign_clients, 2);
        ar->benign_queries = std::min<std::size_t>(ar->benign_queries, 48);
        ar->eval_limit = std::min<std::size_t>(ar->eval_limit, 60);
        ar->detector_enrollment = std::min<std::size_t>(ar->detector_enrollment, 200);
    }
}

// ---- registry ---------------------------------------------------------------

void ScenarioRegistry::add(ScenarioSpec spec) {
    if (spec.name.empty()) throw ConfigError("scenario name must not be empty");
    if (specs_.count(spec.name) != 0) {
        throw ConfigError("scenario '" + spec.name + "' is already registered");
    }
    specs_.emplace(spec.name, std::move(spec));
}

bool ScenarioRegistry::contains(const std::string& name) const {
    return specs_.count(name) != 0;
}

const ScenarioSpec& ScenarioRegistry::get(const std::string& name) const {
    const auto it = specs_.find(name);
    if (it == specs_.end()) {
        std::string available;
        for (const auto& [key, value] : specs_) {
            (void)value;
            if (!available.empty()) available += ", ";
            available += key;
        }
        throw ConfigError("unknown scenario '" + name + "'; available: " + available);
    }
    return it->second;
}

std::vector<std::string> ScenarioRegistry::names(const std::string& prefix) const {
    std::vector<std::string> out;
    for (const auto& [key, value] : specs_) {
        (void)value;
        if (key.rfind(prefix, 0) == 0) out.push_back(key);
    }
    return out;
}

// ---- built-in scenarios -----------------------------------------------------

namespace {

ScenarioSpec base_spec(std::string name, std::string description, DatasetKind dataset,
                       OutputConfig output, ExperimentOptions experiment) {
    ScenarioSpec s;
    s.name = std::move(name);
    s.description = std::move(description);
    s.dataset = dataset;
    s.victim = VictimConfig::defaults(output);
    s.victim.train.epochs = 15;
    s.load.train_count = 6000;
    s.load.test_count = 1500;
    s.load.seed = 2022;
    s.experiment = std::move(experiment);
    return s;
}

void register_builtins(ScenarioRegistry& registry) {
    const struct {
        DatasetKind kind;
        const char* tag;
    } datasets[] = {{DatasetKind::MnistLike, "mnist"}, {DatasetKind::Cifar10Like, "cifar"}};
    const struct {
        OutputConfig output;
        const char* tag;
    } outputs[] = {{OutputConfig::linear_mse(), "linear"},
                   {OutputConfig::softmax_ce(), "softmax"}};

    // Every registry Figure 4 sweep uses this attack seed.
    Fig4Options fig4;
    fig4.seed = 2022 + 33;

    // The paper's core sweeps: every dataset × activation cell of
    // Figure 3, Figure 4, and Table I.
    for (const auto& ds : datasets) {
        for (const auto& out : outputs) {
            registry.add(base_spec(std::string("fig3/") + ds.tag + "/" + out.tag,
                                   "Figure 3 panel pair: sensitivity map vs probed 1-norm map",
                                   ds.kind, out.output, Fig3Options{}));
            registry.add(base_spec(std::string("fig4/") + ds.tag + "/" + out.tag,
                                   "Figure 4: power-guided single-pixel attack sweep", ds.kind,
                                   out.output, fig4));
            registry.add(base_spec(std::string("table1/") + ds.tag + "/" + out.tag,
                                   "Table I: sensitivity/1-norm correlations over runs", ds.kind,
                                   out.output, Table1Options{}));
        }
    }

    // Figure 5 (Section IV uses the linear oracle only).
    for (const bool raw : {false, true}) {
        {
            Fig5Options fig5;
            fig5.raw_outputs = raw;
            fig5.eval_limit = 500;
            registry.add(base_spec(std::string("fig5/mnist/") + (raw ? "raw" : "label"),
                                   "Figure 5 MNIST row: power-aware surrogate attacks",
                                   DatasetKind::MnistLike, OutputConfig::linear_mse(), fig5));
        }
        {
            Fig5Options fig5;
            fig5.raw_outputs = raw;
            fig5.query_counts = {2, 10, 50, 100, 500, 1500};
            fig5.eval_limit = 300;
            ScenarioSpec s = base_spec(std::string("fig5/cifar/") + (raw ? "raw" : "label"),
                                       "Figure 5 CIFAR row: power-aware surrogate attacks",
                                       DatasetKind::Cifar10Like, OutputConfig::linear_mse(),
                                       fig5);
            s.load.train_count = 3000;
            registry.add(std::move(s));
        }
    }

    // Device non-idealities: the Figure 4 sweep on a noisy, faulty array.
    {
        ScenarioSpec s = base_spec("fig4/mnist/softmax-noisy-device",
                                   "Figure 4 on a non-ideal device (read noise + stuck faults)",
                                   DatasetKind::MnistLike, OutputConfig::softmax_ce(), fig4);
        s.victim.nonideal.read_noise_std = 0.05;
        s.victim.nonideal.stuck_off_fraction = 0.01;
        registry.add(std::move(s));
    }

    // Defended deployments.
    {
        Fig4Options via_oracle = fig4;
        via_oracle.evaluate_via_oracle = true;  // the detector must see the attack inputs
        ScenarioSpec s = base_spec("fig4/mnist/softmax-detected",
                                   "Figure 4 against a detector-guarded deployment (log-only)",
                                   DatasetKind::MnistLike, OutputConfig::softmax_ce(),
                                   via_oracle);
        DefenseSpec det;
        det.kind = DefenseSpec::Kind::Detector;
        det.block_flagged = false;
        s.defenses.push_back(det);
        registry.add(std::move(s));
    }
    {
        Fig5Options fig5;
        fig5.eval_limit = 500;
        ScenarioSpec s = base_spec("fig5/mnist/label-defended",
                                   "Figure 5 MNIST label row against a noisy-power defense",
                                   DatasetKind::MnistLike, OutputConfig::linear_mse(), fig5);
        DefenseSpec noise;
        noise.kind = DefenseSpec::Kind::NoisyPower;
        noise.magnitude = 0.25;
        s.defenses.push_back(noise);
        registry.add(std::move(s));
    }
    registry.add(base_spec("probe/mnist/undefended",
                           "Side-channel probe quality on the bare deployment",
                           DatasetKind::MnistLike, OutputConfig::softmax_ce(),
                           ProbeQualityOptions{}));
    // Multi-tenant serving scenarios: concurrent sessions on one
    // OracleService over one shared deployment (the threat model's
    // "attacker among millions of users", scaled to a test bench).
    {
        MultiClientOptions mc;
        mc.mode = MultiClientOptions::Mode::HiddenAttacker;
        mc.benign_clients = 4;
        mc.benign_queries = 256;
        mc.attack_queries = 64;
        // Far beyond the enrolled envelope (the auto-calibrated threshold
        // sits around 2-3x the clean per-line range): the scenario
        // demonstrates *whose window* flags, not detector sensitivity.
        mc.attack_strength = 50.0;
        registry.add(base_spec("service/mnist/hidden-attacker",
                               "One attacker probing and attacking among benign tenants, "
                               "per-session detection windows",
                               DatasetKind::MnistLike, OutputConfig::softmax_ce(), mc));
    }
    {
        MultiClientOptions mc;
        mc.mode = MultiClientOptions::Mode::BudgetExhaustion;
        mc.benign_clients = 4;
        mc.benign_queries = 128;
        mc.attack_queries = 32;
        registry.add(base_spec("service/mnist/budget-exhaustion",
                               "Per-tenant query budgets: the attacker's probe exhausts its "
                               "own budget while benign tenants run on",
                               DatasetKind::MnistLike, OutputConfig::softmax_ce(), mc));
    }
    {
        MultiClientOptions mc;
        mc.mode = MultiClientOptions::Mode::DetectorIsolation;
        mc.benign_clients = 1;
        mc.benign_queries = 256;
        mc.attack_queries = 64;
        mc.attack_strength = 50.0;
        registry.add(base_spec("service/mnist/detector-isolation",
                               "Two tenants, one adversarial: per-session flagged windows "
                               "must not bleed across sessions",
                               DatasetKind::MnistLike, OutputConfig::softmax_ce(), mc));
    }
    // Replica-fleet extraction sweeps: the same trained victim deployed
    // on N physically distinct crossbars (independent stuck cells and
    // noise streams), served behind one OracleService. Measures whether
    // mixing device signatures helps or hurts surrogate extraction.
    {
        ReplicaSweepOptions rs;
        rs.axis = ReplicaSweepOptions::Axis::ReplicaCount;
        rs.routing = RoutingPolicy::RoundRobin;
        rs.seed = 2022 + 55;
        ScenarioSpec s = base_spec("service/mnist/replica-fidelity",
                                   "Surrogate extraction fidelity vs replica count "
                                   "(round-robin over per-replica device signatures)",
                                   DatasetKind::MnistLike, OutputConfig::linear_mse(), rs);
        s.victim.nonideal.read_noise_std = 0.05;
        s.victim.nonideal.stuck_off_fraction = 0.01;
        registry.add(std::move(s));
    }
    {
        ReplicaSweepOptions rs;
        rs.axis = ReplicaSweepOptions::Axis::Routing;
        rs.routing_replicas = 4;
        rs.seed = 2022 + 55;
        ScenarioSpec s = base_spec("service/mnist/replica-routing",
                                   "Surrogate extraction fidelity vs routing policy over a "
                                   "4-replica fleet of distinct device signatures",
                                   DatasetKind::MnistLike, OutputConfig::linear_mse(), rs);
        s.victim.nonideal.read_noise_std = 0.05;
        s.victim.nonideal.stuck_off_fraction = 0.01;
        registry.add(std::move(s));
    }
    // The arms race: every adaptive-attacker strategy against every
    // defense policy (token-bucket rate limiting, suspicion-scaled
    // escalation), with benign tenants paying the defender's cost.
    {
        ArmsRaceOptions ar;
        ar.seed = 2022 + 77;
        registry.add(base_spec("service/mnist/arms-race",
                               "Adaptive attacker strategies vs token-bucket rate limits "
                               "and suspicion-scaled defenses, with benign-tenant cost",
                               DatasetKind::MnistLike, OutputConfig::linear_mse(), ar));
    }
    // Cross-session attribution: the rotation-proof defense the arms
    // race motivated. The session-rotating (spread) and identity-forging
    // (forge) attackers run against the PR 8 best defense (rate +
    // adaptive, which spread beats) and against the attribution stack
    // (per-source windows + buckets, deployment alert, query-overlap
    // campaign clustering).
    {
        ArmsRaceOptions ar;
        ar.strategies = {attack::AttackerStrategy::Spread, attack::AttackerStrategy::Forge};
        ArmsDefense baseline;
        baseline.name = "rate+adaptive";
        baseline.rate = RateLimit{400.0, 48.0};
        baseline.suspicion_scaled = true;
        ArmsDefense attrib;
        attrib.name = "attrib";
        attrib.suspicion_scaled = true;
        attrib.attribution = true;
        // The per-source allowance replaces the tight per-session bucket:
        // same refill, but a burst a benign tenant's whole workload fits
        // inside — rotation buys the attacker nothing, so the bucket no
        // longer has to be stingy to matter.
        attrib.source_rate = RateLimit{400.0, 256.0};
        // Enforcement that per-query escalation cannot provide: campaigns
        // whose pooled windows cross 0.35 suspicion are refused outright
        // (the attacker's probe traffic sits near 0.55 — half probes, half
        // in-distribution camouflage; benign tenants stay under 0.03), and
        // the short campaign trips the deployment alert at 64 screened
        // rows so forged sources hit the registration freeze early.
        attrib.quarantine_suspicion = 0.35;
        attrib.alert_min_screened = 64;
        // Forge mints a fresh SourceId every few queries (~300 over the
        // campaign); the cell onboards 2 benign principals total. Eight
        // first-time sources inside the churn window is unreachable for
        // the benign fleet and a handful of rotations for the forger.
        attrib.churn_fresh_sources = 8;
        ar.defenses = {baseline, attrib};
        ar.seed = 2022 + 101;
        registry.add(base_spec("service/mnist/attribution",
                               "Session-rotating and identity-forging attackers vs "
                               "cross-session attribution (per-source windows, campaign "
                               "clustering, deployment alert)",
                               DatasetKind::MnistLike, OutputConfig::linear_mse(), ar));
    }
    // The optimization-induced side channel: a shared result cache turns
    // hit/miss latency into a cross-tenant leak of *which inputs* other
    // sessions queried; per-session partitioning is the defense.
    {
        CacheTimingOptions ct;
        ct.seed = 2022 + 89;
        registry.add(base_spec("service/mnist/cache-timing",
                               "Attacker infers a co-tenant's query contents from result-"
                               "cache hit/miss latency; partitioning closes the channel",
                               DatasetKind::MnistLike, OutputConfig::softmax_ce(), ct));
    }
    {
        // Randomised dummy loads on the device; sensing noise and a hard
        // power-measurement budget on the attacker's session.
        ScenarioSpec s = base_spec("probe/mnist/defended",
                                   "Probe quality against dummies + noise + query budget",
                                   DatasetKind::MnistLike, OutputConfig::softmax_ce(),
                                   ProbeQualityOptions{});
        DefenseSpec dummies;
        dummies.kind = DefenseSpec::Kind::RandomDummy;
        dummies.magnitude = 1.0;
        s.defenses.push_back(dummies);
        DefenseSpec noise;
        noise.kind = DefenseSpec::Kind::NoisyPower;
        noise.magnitude = 0.25;
        s.defenses.push_back(noise);
        DefenseSpec budget;
        budget.kind = DefenseSpec::Kind::QueryBudget;
        budget.budget.max_power = 4 * 784;  // one full probe plus headroom
        s.defenses.push_back(budget);
        registry.add(std::move(s));
    }
}

}  // namespace

ScenarioRegistry& builtin_scenarios() {
    static ScenarioRegistry registry = [] {
        ScenarioRegistry r;
        register_builtins(r);
        return r;
    }();
    return registry;
}

// ---- deployment -------------------------------------------------------------

namespace {

data::DataSplit load_split(const ScenarioSpec& spec) {
    return spec.dataset == DatasetKind::Cifar10Like ? data::load_cifar10_like(spec.load)
                                                    : data::load_mnist_like(spec.load);
}

std::string experiment_label(const ScenarioSpec& spec) {
    return to_string(spec.dataset) + "/" + spec.victim.output.name();
}

bool has_defense(const ScenarioSpec& spec, DefenseSpec::Kind kind) {
    return std::any_of(spec.defenses.begin(), spec.defenses.end(),
                       [kind](const DefenseSpec& d) { return d.kind == kind; });
}

}  // namespace

DeployedScenario ScenarioRunner::deploy(const ScenarioSpec& spec) const {
    const auto* multiclient = std::get_if<MultiClientOptions>(&spec.experiment);
    if (multiclient != nullptr &&
        std::any_of(spec.defenses.begin(), spec.defenses.end(),
                    [](const DefenseSpec& ds) { return ds.session_policy(); })) {
        throw ConfigError("multi-client scenarios do not support policy defenses (sensing "
                          "noise, query budget, detector): they configure only the default "
                          "session, and every tenant opens its own");
    }
    DeployedScenario d;
    d.spec_ = spec;
    d.split_ = load_split(spec);
    d.victim_ = train_victim(d.split_, spec.victim);
    d.backend_ = std::make_unique<CrossbarOracle>(deploy_victim(d.victim_.net, spec.victim));
    d.backend_->set_thread_pool(pool_);

    // A detector is enrolled when a Detector defense asks for one, or when
    // a multi-client experiment screens per session (shared enrolment,
    // per-tenant windows).
    const auto it = std::find_if(
        spec.defenses.begin(), spec.defenses.end(),
        [](const DefenseSpec& ds) { return ds.kind == DefenseSpec::Kind::Detector; });
    const bool multiclient_detector =
        multiclient != nullptr && multiclient->mode != MultiClientOptions::Mode::BudgetExhaustion;
    if (it != spec.defenses.end() || multiclient_detector) {
        // Enrol on clean training data through the deployed hardware.
        const sidechannel::DetectorConfig config =
            it != spec.defenses.end() ? it->detector : multiclient->detector;
        const std::size_t take = it != spec.defenses.end() ? it->detector_enrollment
                                                           : multiclient->detector_enrollment;
        const data::Dataset enrollment = take > 0 ? d.split_.train.take(take) : d.split_.train;
        d.detector_ = std::make_unique<sidechannel::CurrentSignatureDetector>(
            d.backend_->hardware_for_evaluation(), enrollment, config);
    }

    // The obfuscation defenses become device layers; the policy defenses
    // become the attacker session's config.
    d.stack_ = std::make_unique<DecoratorStack>(*d.backend_);
    const SessionConfig attacker = apply_defenses(
        spec.defenses, *d.stack_, deployed_weight_scale(*d.backend_), d.detector_.get());

    // Front the stack with the serving layer. Single-client experiments
    // run through the default session; multi-client experiments open
    // further sessions on the same service.
    ServiceConfig service_config;
    service_config.pool = pool_;
    d.service_ = std::make_unique<OracleService>(d.stack_->top(), service_config);
    d.session_ = d.service_->open_session(attacker);
    return d;
}

// ---- experiments ------------------------------------------------------------

namespace {

void finish_with_cost(ScenarioOutcome& outcome, DeployedScenario& d) {
    outcome.attacker_cost = d.backend().counters();
    outcome.metrics["attacker_inference_queries"] =
        static_cast<double>(outcome.attacker_cost.inference);
    outcome.metrics["attacker_power_queries"] = static_cast<double>(outcome.attacker_cost.power);
    if (has_defense(d.spec(), DefenseSpec::Kind::Detector)) {
        outcome.metrics["detector_screened"] = static_cast<double>(d.session().screened());
        outcome.metrics["detector_flagged_fraction"] = d.session().flagged_fraction();
    }
}

ScenarioOutcome run_experiment(const ScenarioRunner& runner, const ScenarioSpec& spec,
                               const Fig3Options&) {
    ScenarioOutcome outcome;
    DeployedScenario d = runner.deploy(spec);
    const Fig3Panel panel = run_fig3_on(d.oracle(), d.victim(), d.split().test,
                                        experiment_label(spec));
    outcome.label = panel.label;

    Table summary({"Config", "Pearson r", "Roughness(sens)", "Roughness(L1)", "Victim test acc"});
    summary.begin_row();
    summary.add(panel.label);
    summary.add(panel.correlation, 3);
    summary.add(map_roughness(panel.sensitivity_map, panel.shape), 3);
    summary.add(map_roughness(panel.l1_map, panel.shape), 3);
    summary.add(panel.victim_test_accuracy, 3);
    outcome.tables.emplace_back("summary", std::move(summary));

    outcome.metrics["correlation"] = panel.correlation;
    outcome.metrics["victim_test_accuracy"] = panel.victim_test_accuracy;
    outcome.notes.emplace_back("sensitivity map (mean |dL/du|)",
                               render_ascii_heatmap(panel.sensitivity_map, panel.shape));
    outcome.notes.emplace_back("probed column 1-norms",
                               render_ascii_heatmap(panel.l1_map, panel.shape));
    outcome.grids.push_back({"sensitivity", panel.sensitivity_map, panel.shape});
    outcome.grids.push_back({"l1", panel.l1_map, panel.shape});
    finish_with_cost(outcome, d);
    return outcome;
}

ScenarioOutcome run_experiment(const ScenarioRunner& runner, const ScenarioSpec& spec,
                               const Fig4Options& options) {
    ScenarioOutcome outcome;
    DeployedScenario d = runner.deploy(spec);
    const data::Dataset eval_set =
        options.eval_limit > 0 ? d.split().test.take(options.eval_limit) : d.split().test;
    const Fig4Result result = run_fig4_on(d.oracle(), d.backend().hardware_for_evaluation(),
                                          eval_set, experiment_label(spec), options);
    outcome.label = result.label;
    outcome.tables.emplace_back("fig4", render_fig4(result));
    outcome.metrics["clean_accuracy"] = result.clean_accuracy;
    finish_with_cost(outcome, d);
    return outcome;
}

ScenarioOutcome run_experiment(const ScenarioRunner& runner, const ScenarioSpec& spec,
                               const Fig5Options& fig5) {
    if (has_defense(spec, DefenseSpec::Kind::Detector)) {
        throw ConfigError("fig5 scenarios do not support detector defenses (each run deploys "
                          "a fresh victim; use a fig4 or probe scenario)");
    }
    ScenarioOutcome outcome;
    const data::DataSplit split = load_split(spec);
    Fig5Options options = fig5;
    options.pool = runner.pool();
    options.defenses = spec.defenses;
    const Fig5Result result =
        run_fig5(split, to_string(spec.dataset), spec.victim.output, spec.victim, options);
    outcome.label = result.label;
    outcome.tables.emplace_back("surrogate_acc", render_fig5_surrogate_accuracy(result));
    outcome.tables.emplace_back("adv_acc", render_fig5_adversarial_accuracy(result));
    outcome.tables.emplace_back("improvement", render_fig5_improvement(result));
    outcome.metrics["oracle_clean_accuracy_mean"] = result.oracle_clean_accuracy_mean;
    return outcome;
}

ScenarioOutcome run_experiment(const ScenarioRunner& runner, const ScenarioSpec& spec,
                               const Table1Options& table1) {
    if (!spec.defenses.empty()) {
        throw ConfigError("table1 scenarios do not support defense stacks (the probe is the "
                          "measurement itself; use a probe scenario to study defenses)");
    }
    ScenarioOutcome outcome;
    const data::DataSplit split = load_split(spec);
    Table1Options options = table1;
    options.victim = spec.victim;
    options.pool = runner.pool();
    const Table1Row row =
        run_table1_config(split, to_string(spec.dataset), spec.victim.output, options);
    outcome.label = row.dataset + "/" + row.activation;
    outcome.tables.emplace_back("table1", render_table1({row}));
    outcome.metrics["mean_corr_test"] = row.mean_corr_test;
    outcome.metrics["corr_of_mean_test"] = row.corr_of_mean_test;
    outcome.metrics["victim_test_accuracy"] = row.victim_test_accuracy;
    return outcome;
}

ScenarioOutcome run_experiment(const ScenarioRunner& runner, const ScenarioSpec& spec,
                               const ProbeQualityOptions& options) {
    ScenarioOutcome outcome;
    DeployedScenario d = runner.deploy(spec);
    outcome.label = experiment_label(spec);

    const tensor::Vector truth = tensor::column_abs_sums(
        d.backend().hardware_for_evaluation().effective_network().weights());
    const sidechannel::ProbeResult probe = probe_columns(d.oracle(), options.probe);
    const double rel_error = sidechannel::relative_error(probe.conductance_sums, truth);
    const double agreement =
        sidechannel::topk_agreement(probe.conductance_sums, truth, options.topk);

    Table table({"Deployment", "L1 rel. error",
                 "Top-" + std::to_string(options.topk) + " ranking agreement", "Power queries"});
    table.begin_row();
    if (spec.defenses.empty()) {
        table.add("undefended");
    } else {
        const auto policies = static_cast<std::size_t>(
            std::count_if(spec.defenses.begin(), spec.defenses.end(),
                          [](const DefenseSpec& ds) { return ds.session_policy(); }));
        const std::size_t layers = spec.defenses.size() - policies;
        table.add("defended (" + std::to_string(layers) + " device layer" +
                  (layers == 1 ? "" : "s") + " + " + std::to_string(policies) + " session polic" +
                  (policies == 1 ? "y" : "ies") + ")");
    }
    table.add(rel_error, 4);
    table.add(agreement, 3);
    table.add(static_cast<long long>(probe.queries));
    outcome.tables.emplace_back("probe", std::move(table));

    outcome.metrics["l1_relative_error"] = rel_error;
    outcome.metrics["topk_agreement"] = agreement;
    finish_with_cost(outcome, d);
    return outcome;
}

// ---- multi-client serving experiments ---------------------------------------

/// Outcome of one benign tenant's streamed clean-label workload.
struct BenignOutcome {
    std::uint64_t answered = 0;
    std::uint64_t refused = 0;  ///< budget/detector refusals
    double flagged_fraction = 0.0;
    QueryCounters counters;
};

/// Streams `count` clean label queries (random test rows) through the
/// session as pipelined async submissions — the traffic the attacker
/// hides in, and what the coalescer packs into shared GEMM batches.
BenignOutcome run_benign_client(Session& session, const data::Dataset& test, std::size_t count,
                                std::uint64_t seed) {
    BenignOutcome out;
    Rng rng(seed);
    constexpr std::size_t kWindow = 32;
    std::vector<std::future<int>> window;
    window.reserve(kWindow);
    for (std::size_t q = 0; q < count;) {
        window.clear();
        for (std::size_t w = 0; w < kWindow && q < count; ++w, ++q) {
            const std::size_t pick = static_cast<std::size_t>(rng.below(test.size()));
            try {
                window.push_back(session.submit_label(test.inputs().row(pick)));
            } catch (const Error&) {
                ++out.refused;  // budget exhausted / query refused at submission
            }
        }
        for (auto& f : window) {
            try {
                (void)f.get();
                ++out.answered;
            } catch (const Error&) {
                ++out.refused;
            }
        }
    }
    out.flagged_fraction = session.flagged_fraction();
    out.counters = session.counters();
    return out;
}

/// One attacker among benign tenants: every client is a concurrent
/// session on one OracleService over one shared deployment. The three
/// modes measure what multi-tenancy adds over a single client:
/// per-tenant detection windows, per-tenant budgets, and isolation of
/// both.
ScenarioOutcome run_experiment(const ScenarioRunner& runner, const ScenarioSpec& spec,
                               const MultiClientOptions& mc) {
    using Mode = MultiClientOptions::Mode;
    ScenarioOutcome outcome;
    DeployedScenario d = runner.deploy(spec);
    OracleService& service = d.service();
    outcome.label = experiment_label(spec) + "/" + to_string(mc.mode);
    const data::Dataset& test = d.split().test;

    // Per-tenant policy. Benign tenants and the attacker get the *same*
    // policy — the deployment cannot know who is who up front.
    SessionConfig tenant;
    tenant.budget = mc.tenant_budget;
    if (mc.mode == Mode::BudgetExhaustion && tenant.budget.unlimited()) {
        // Enough power budget for half a probe sweep, plenty of
        // inference for the benign workloads.
        tenant.budget.max_power = service.inputs() / 2;
        tenant.budget.max_inference = mc.benign_queries * 4;
    }
    if (d.enrolled_detector() != nullptr) {
        tenant.detector = d.enrolled_detector();
        tenant.block_flagged = false;  // log-only: measure, don't distort traffic
    }

    Session attacker = service.open_session(tenant);
    std::vector<Session> benign;
    benign.reserve(mc.benign_clients);
    for (std::size_t c = 0; c < mc.benign_clients; ++c) benign.push_back(service.open_session(tenant));

    // Benign tenants stream concurrently with the attacker.
    std::vector<BenignOutcome> benign_out(mc.benign_clients);
    std::vector<std::thread> clients;
    clients.reserve(mc.benign_clients);
    for (std::size_t c = 0; c < mc.benign_clients; ++c) {
        clients.emplace_back([&, c] {
            benign_out[c] =
                run_benign_client(benign[c], test, mc.benign_queries, mc.seed ^ (c + 1));
        });
    }

    // The attacker's campaign: locate the highest-leakage input line via
    // the power channel, then drive it with single-pixel inference
    // queries hidden inside the benign traffic.
    double attacker_flagged = 0.0;
    bool attacker_exhausted = false;
    std::uint64_t attacker_answered = 0;
    {
        Rng rng(mc.seed ^ 0xA77ACC3Ull);
        std::size_t target = 0;
        try {
            const auto probe = probe_columns(attacker.oracle());
            target = tensor::argmax(probe.conductance_sums);
        } catch (const QueryBudgetExceeded&) {
            attacker_exhausted = true;
            // Fall back to the strongest line the tenant budget let it see:
            // ground truth is fine here, the probe already proved the point.
            target = tensor::argmax(tensor::column_abs_sums(
                d.backend().hardware_for_evaluation().effective_network().weights()));
        }
        std::vector<std::future<int>> pending;
        pending.reserve(mc.attack_queries);
        for (std::size_t q = 0; q < mc.attack_queries; ++q) {
            const std::size_t pick = static_cast<std::size_t>(rng.below(test.size()));
            tensor::Vector u = test.inputs().row(pick);
            u[target] = mc.attack_strength;  // clean pixels live in [0, 1]
            try {
                pending.push_back(attacker.submit_label(std::move(u)));
            } catch (const QueryBudgetExceeded&) {
                attacker_exhausted = true;
                break;
            } catch (const QueryRefused&) {
                continue;  // blocking detector refused it; keep trying
            }
        }
        for (auto& f : pending) {
            try {
                (void)f.get();
                ++attacker_answered;
            } catch (const Error&) {
            }
        }
        attacker_flagged = attacker.flagged_fraction();
    }
    for (std::thread& t : clients) t.join();

    // Per-tenant accounting table.
    Table table({"Tenant", "Answered", "Refused", "Flagged frac.", "Power spent", "Inf. spent"});
    double benign_flagged_sum = 0.0;
    std::uint64_t benign_answered = 0, benign_refused = 0;
    for (std::size_t c = 0; c < mc.benign_clients; ++c) {
        const BenignOutcome& b = benign_out[c];
        benign_flagged_sum += b.flagged_fraction;
        benign_answered += b.answered;
        benign_refused += b.refused;
        table.begin_row();
        table.add("benign#" + std::to_string(c));
        table.add(static_cast<long long>(b.answered));
        table.add(static_cast<long long>(b.refused));
        table.add(b.flagged_fraction, 3);
        table.add(static_cast<long long>(benign[c].budget_spent().power));
        table.add(static_cast<long long>(benign[c].budget_spent().inference));
    }
    table.begin_row();
    table.add("attacker");
    table.add(static_cast<long long>(attacker_answered));
    table.add(attacker_exhausted ? "budget-exhausted" : "0");
    table.add(attacker_flagged, 3);
    table.add(static_cast<long long>(attacker.budget_spent().power));
    table.add(static_cast<long long>(attacker.budget_spent().inference));
    outcome.tables.emplace_back("tenants", std::move(table));

    const double benign_flagged_mean =
        mc.benign_clients > 0 ? benign_flagged_sum / static_cast<double>(mc.benign_clients) : 0.0;
    outcome.metrics["attacker_flagged_fraction"] = attacker_flagged;
    outcome.metrics["benign_flagged_fraction_mean"] = benign_flagged_mean;
    outcome.metrics["detector_separation"] = attacker_flagged - benign_flagged_mean;
    outcome.metrics["attacker_exhausted"] = attacker_exhausted ? 1.0 : 0.0;
    outcome.metrics["benign_answered"] = static_cast<double>(benign_answered);
    outcome.metrics["benign_refused"] = static_cast<double>(benign_refused);
    outcome.metrics["attacker_answered"] = static_cast<double>(attacker_answered);
    outcome.metrics["service_sessions"] = static_cast<double>(service.sessions_opened());
    outcome.metrics["coalesced_batches"] = static_cast<double>(service.flushed_batches());
    outcome.metrics["mean_coalesced_rows"] =
        service.flushed_batches() > 0
            ? static_cast<double>(service.flushed_rows()) /
                  static_cast<double>(service.flushed_batches())
            : 0.0;
    // Attacker cost is the *attacker session's* ledger, not the backend
    // counters — those aggregate every tenant's traffic here. The
    // deployment-wide load is reported separately.
    outcome.attacker_cost = attacker.counters();
    outcome.metrics["attacker_inference_queries"] =
        static_cast<double>(outcome.attacker_cost.inference);
    outcome.metrics["attacker_power_queries"] = static_cast<double>(outcome.attacker_cost.power);
    outcome.metrics["deployment_total_queries"] =
        static_cast<double>(d.backend().counters().total());
    return outcome;
}

// ---- replica-fleet extraction sweeps ----------------------------------------

/// Streams `count` raw+power query pairs through the session as
/// pipelined per-row submissions. Unlike collect_queries (one batched
/// unit — which the service routes to exactly one replica), every row
/// here is its own unit, so the fleet's routing policy actually spreads
/// the attacker's stream over the replicas' device signatures.
attack::QueryDataset collect_queries_pipelined(Session& session, const data::Dataset& pool,
                                               std::size_t count, std::uint64_t seed) {
    Rng rng(seed);
    attack::QueryDataset q;
    q.inputs = tensor::Matrix(count, pool.input_dim());
    for (std::size_t r = 0; r < count; ++r) {
        const auto src = pool.inputs().row_span(static_cast<std::size_t>(rng.below(pool.size())));
        auto dst = q.inputs.row_span(r);
        std::copy(src.begin(), src.end(), dst.begin());
    }
    q.outputs = tensor::Matrix(count, session.oracle().outputs());
    q.power = tensor::Vector(count, 0.0);

    constexpr std::size_t kWindow = 64;
    std::vector<std::future<tensor::Vector>> raw;
    std::vector<std::future<double>> power;
    raw.reserve(kWindow);
    power.reserve(kWindow);
    for (std::size_t start = 0; start < count; start += kWindow) {
        const std::size_t stop = std::min(count, start + kWindow);
        raw.clear();
        power.clear();
        for (std::size_t r = start; r < stop; ++r) {
            raw.push_back(session.submit_raw(q.inputs.row(r)));
            power.push_back(session.submit_power(q.inputs.row(r)));
        }
        for (std::size_t r = start; r < stop; ++r) {
            const tensor::Vector y = raw[r - start].get();
            auto dst = q.outputs.row_span(r);
            std::copy(y.begin(), y.end(), dst.begin());
            q.power[r] = power[r - start].get();
        }
    }
    return q;
}

/// Label agreement between the extracted surrogate and the victim's
/// *software* network on clean test inputs — the extraction-fidelity
/// measure the fleet sweep reports.
double surrogate_fidelity(const nn::SingleLayerNet& surrogate, const nn::SingleLayerNet& victim,
                          const tensor::Matrix& X, std::size_t limit) {
    const std::size_t n = limit > 0 ? std::min(limit, X.rows()) : X.rows();
    std::size_t agree = 0;
    for (std::size_t r = 0; r < n; ++r) {
        const tensor::Vector u = X.row(r);
        if (surrogate.classify(u) == victim.classify(u)) ++agree;
    }
    return n > 0 ? static_cast<double>(agree) / static_cast<double>(n) : 0.0;
}

/// One sweep point: a fleet of `replicas` distinct devices behind one
/// service with `routing`; the attacker extracts a surrogate through a
/// pipelined per-row query stream and we score its fidelity.
struct ReplicaSweepPoint {
    std::size_t replicas = 1;
    RoutingPolicy routing = RoutingPolicy::SessionAffine;
    double fidelity = 0.0;
    std::uint64_t min_replica_rows = 0;  ///< routed-row spread over the fleet
    std::uint64_t max_replica_rows = 0;
};

ReplicaSweepPoint run_replica_sweep_point(const TrainedVictim& victim,
                                          const VictimConfig& victim_config,
                                          const data::DataSplit& split,
                                          const ReplicaSweepOptions& rs, std::size_t replicas,
                                          RoutingPolicy routing, ThreadPool* pool) {
    ReplicaSweepPoint point;
    point.replicas = replicas;
    point.routing = routing;

    std::vector<CrossbarOracle> fleet = deploy_victim_fleet(victim.net, victim_config, replicas);
    std::vector<Oracle*> backends;
    backends.reserve(fleet.size());
    for (CrossbarOracle& oracle : fleet) {
        oracle.set_thread_pool(pool);
        backends.push_back(&oracle);
    }
    ServiceConfig service_config;
    service_config.pool = pool;
    service_config.routing = routing;
    service_config.max_batch = 64;
    OracleService service(backends, service_config);
    Session attacker = service.open_session();

    const attack::QueryDataset queries =
        collect_queries_pipelined(attacker, split.train, rs.queries, rs.seed);
    const nn::SingleLayerNet surrogate =
        attack::fit_least_squares_surrogate(queries, rs.lambda_ridge, pool);
    point.fidelity =
        surrogate_fidelity(surrogate, victim.net, split.test.inputs(), rs.eval_limit);

    point.min_replica_rows = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t k = 0; k < service.replica_count(); ++k) {
        const std::uint64_t rows = service.replica_counters(k).total();
        point.min_replica_rows = std::min(point.min_replica_rows, rows);
        point.max_replica_rows = std::max(point.max_replica_rows, rows);
    }
    return point;
}

ScenarioOutcome run_experiment(const ScenarioRunner& runner, const ScenarioSpec& spec,
                               const ReplicaSweepOptions& rs) {
    if (!spec.defenses.empty()) {
        throw ConfigError("replica-sweep scenarios do not support defense stacks (each point "
                          "deploys a bare fleet; use a fig4 or probe scenario to study defenses)");
    }
    ScenarioOutcome outcome;
    const data::DataSplit split = load_split(spec);
    // One victim, trained once: every sweep point redeploys the same
    // weights onto a fresh fleet, so fidelity differences come from the
    // fleet, not training variance.
    const TrainedVictim victim = train_victim(split, spec.victim);
    outcome.label = experiment_label(spec) + "/" + to_string(rs.axis);

    std::vector<ReplicaSweepPoint> points;
    if (rs.axis == ReplicaSweepOptions::Axis::ReplicaCount) {
        for (const std::size_t n : rs.replica_counts) {
            points.push_back(run_replica_sweep_point(victim, spec.victim, split, rs,
                                                     std::max<std::size_t>(1, n), rs.routing,
                                                     runner.pool()));
        }
    } else {
        for (const RoutingPolicy routing : rs.routings) {
            points.push_back(run_replica_sweep_point(victim, spec.victim, split, rs,
                                                     rs.routing_replicas, routing, runner.pool()));
        }
    }

    Table table({"Replicas", "Routing", "Surrogate fidelity", "Rows/replica (min..max)"});
    for (const ReplicaSweepPoint& p : points) {
        table.begin_row();
        table.add(static_cast<long long>(p.replicas));
        table.add(to_string(p.routing));
        table.add(p.fidelity, 3);
        table.add(std::to_string(p.min_replica_rows) + ".." + std::to_string(p.max_replica_rows));
        const std::string key = rs.axis == ReplicaSweepOptions::Axis::ReplicaCount
                                    ? "fidelity_replicas_" + std::to_string(p.replicas)
                                    : "fidelity_" + to_string(p.routing);
        outcome.metrics[key] = p.fidelity;
    }
    outcome.tables.emplace_back("replica_sweep", std::move(table));
    outcome.metrics["victim_test_accuracy"] = victim.test_accuracy;
    outcome.metrics["queries_per_point"] = static_cast<double>(rs.queries);
    return outcome;
}

// ---- cache-timing -----------------------------------------------------------

/// One prime-and-probe trial against a fresh deployment of the trained
/// victim: the victim session primes the cache with its secret member
/// set, then the attacker session times one probe of every candidate.
/// Appends (latency, is_member) samples; only the first probe of a
/// candidate carries signal (the probe itself populates the cache), so
/// repeats are independent trials, not repeated probes.
struct CacheTimingSamples {
    std::vector<double> member_ns;
    std::vector<double> nonmember_ns;
};

void run_cache_timing_trial(const TrainedVictim& victim, const VictimConfig& victim_config,
                            const data::Dataset& candidates, const std::vector<bool>& is_member,
                            const tensor::Vector& warmup, const CacheTimingOptions& ct,
                            bool partitioned, std::uint64_t seed, ThreadPool* pool,
                            CacheTimingSamples& samples, double& hit_rate_out) {
    std::vector<CrossbarOracle> fleet = deploy_victim_fleet(victim.net, victim_config, 1);
    fleet.front().set_thread_pool(pool);
    ServiceConfig service_config;
    service_config.pool = pool;
    service_config.cache.enabled = true;
    service_config.cache.capacity = ct.cache_capacity;
    service_config.cache.partition_by_session = partitioned;
    OracleService service({&fleet.front()}, service_config);

    Session victim_session = service.open_session();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (is_member[i]) victim_session.oracle().query_label(candidates.input(i));
    }

    Session attacker = service.open_session();
    Oracle& probe = attacker.oracle();
    // Warm the attacker's submission path (first-query thread wakeup,
    // lazy allocations) on an input *outside* the candidate pool, so the
    // warm-up cannot seed any candidate into the attacker's partition.
    probe.query_label(warmup);
    // Probe in an attacker-shuffled order so queue/scheduling drift over
    // the pass cannot correlate with membership.
    std::vector<std::size_t> order(candidates.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng rng(seed);
    for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[static_cast<std::size_t>(rng.below(i))]);
    }
    for (const std::size_t i : order) {
        const tensor::Vector u = candidates.input(i);
        const auto t0 = std::chrono::steady_clock::now();
        probe.query_label(u);
        const auto t1 = std::chrono::steady_clock::now();
        const double ns =
            static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                                    .count());
        (is_member[i] ? samples.member_ns : samples.nonmember_ns).push_back(ns);
    }
    hit_rate_out = service.cache_hit_rate();
}

/// Mann-Whitney AUC of "members probe faster": P(m < n) + ½·P(m = n)
/// over all member/non-member latency pairs. 1.0 = perfect inference of
/// the co-tenant's query contents, 0.5 = chance.
double membership_auc(const CacheTimingSamples& samples) {
    if (samples.member_ns.empty() || samples.nonmember_ns.empty()) return 0.5;
    double wins = 0.0;
    for (const double m : samples.member_ns) {
        for (const double n : samples.nonmember_ns) {
            if (m < n) {
                wins += 1.0;
            } else if (m == n) {
                wins += 0.5;
            }
        }
    }
    return wins / (static_cast<double>(samples.member_ns.size()) *
                   static_cast<double>(samples.nonmember_ns.size()));
}

ScenarioOutcome run_experiment(const ScenarioRunner& runner, const ScenarioSpec& spec,
                               const CacheTimingOptions& ct) {
    if (!spec.defenses.empty()) {
        throw ConfigError("cache-timing scenarios do not support defense stacks (the channel "
                          "lives in the serving layer, above any decorator)");
    }
    ScenarioOutcome outcome;
    const data::DataSplit split = load_split(spec);
    const TrainedVictim victim = train_victim(split, spec.victim);
    outcome.label = experiment_label(spec) + "/cache-timing";

    // A public candidate pool; the victim queries a secret half. The
    // attacker knows the pool (realistic: popular inputs are public) but
    // not the subset.
    const std::size_t pool_size = std::min<std::size_t>(ct.candidate_pool, split.test.size());
    const data::Dataset candidates = split.test.take(pool_size);
    std::vector<bool> is_member(pool_size, false);
    {
        std::vector<std::size_t> order(pool_size);
        for (std::size_t i = 0; i < pool_size; ++i) order[i] = i;
        Rng rng(ct.seed);
        for (std::size_t i = pool_size; i > 1; --i) {
            std::swap(order[i - 1], order[static_cast<std::size_t>(rng.below(i))]);
        }
        for (std::size_t i = 0; i < pool_size / 2; ++i) is_member[order[i]] = true;
    }

    Table table({"Cache mode", "Attacker AUC", "Attacker hit rate", "Trials"});
    for (const bool partitioned : {false, true}) {
        CacheTimingSamples samples;
        double hit_rate = 0.0;
        for (std::size_t trial = 0; trial < std::max<std::size_t>(1, ct.probe_repeats); ++trial) {
            run_cache_timing_trial(victim, spec.victim, candidates, is_member,
                                   split.train.input(0), ct, partitioned, ct.seed + 1 + trial,
                                   runner.pool(), samples, hit_rate);
        }
        const double auc = membership_auc(samples);
        const std::string mode = partitioned ? "partitioned" : "shared";
        table.begin_row();
        table.add(mode);
        table.add(auc, 3);
        table.add(hit_rate, 3);
        table.add(static_cast<long long>(std::max<std::size_t>(1, ct.probe_repeats)));
        outcome.metrics["attacker_auc_" + mode] = auc;
        outcome.metrics["attacker_hit_rate_" + mode] = hit_rate;
    }
    outcome.tables.emplace_back("cache_timing", std::move(table));
    outcome.metrics["victim_test_accuracy"] = victim.test_accuracy;
    outcome.metrics["candidate_pool"] = static_cast<double>(pool_size);
    return outcome;
}

// ---- arms race ---------------------------------------------------------------

/// One cell of the strategy × policy matrix, with everything it measured.
struct ArmsCell {
    attack::AttackerStrategy strategy = attack::AttackerStrategy::Fixed;
    const ArmsDefense* defense = nullptr;
    double fidelity = 0.0;
    attack::AdaptiveAttackerOutcome attacker;
    std::uint64_t benign_answered = 0;
    std::uint64_t benign_refused = 0;
    double benign_wall_s = 0.0;

    // Attribution cells only (defense->attribution).
    std::size_t campaigns = 0;           ///< final campaign-cluster count
    std::size_t benign_false_merges = 0; ///< benign sessions clustered with anything
    bool alert = false;                  ///< deployment alert state at campaign end
    std::string attrib_snapshot;         ///< engine JSON snapshot
};

/// Runs one cell: a fresh single-replica deployment of the trained
/// victim, benign tenants streaming concurrently, and the strategy's
/// AdaptiveAttacker campaign — every session under the cell's defense
/// policy (the deployment cannot single the attacker out).
void run_arms_cell(const TrainedVictim& victim, const VictimConfig& victim_config,
                   const data::DataSplit& split, const ArmsRaceOptions& ar,
                   const sidechannel::CurrentSignatureDetector* detector,
                   const tensor::Matrix& probe_pool, const tensor::Matrix& camouflage,
                   std::uint64_t cell_seed, ThreadPool* pool, ArmsCell& cell) {
    std::vector<CrossbarOracle> fleet = deploy_victim_fleet(victim.net, victim_config, 1);
    fleet.front().set_thread_pool(pool);
    ServiceConfig service_config;
    service_config.pool = pool;
    service_config.max_batch = 64;
    if (cell.defense->attribution) {
        service_config.attribution.enabled = true;
        service_config.attribution.source_rate = cell.defense->source_rate;
        if (cell.defense->alert_min_screened > 0) {
            service_config.attribution.engine.alert_min_screened =
                cell.defense->alert_min_screened;
        }
        if (cell.defense->churn_fresh_sources > 0) {
            service_config.attribution.engine.churn_fresh_sources =
                cell.defense->churn_fresh_sources;
        }
    }
    OracleService service({&fleet.front()}, service_config);

    SessionConfig tenant;
    tenant.rate = cell.defense->rate;
    if (cell.defense->suspicion_scaled) {
        XS_EXPECTS_MSG(detector != nullptr,
                       "suspicion-scaled arms-race cell without an enrolled detector");
        tenant.detector = detector;
        tenant.block_flagged = false;  // log-only: suspicion feeds the policy
        tenant.adaptive = ar.adaptive;
        if (cell.defense->quarantine_suspicion > 0.0) {
            // Quarantine rung: refuse everything once the session's
            // campaign-pooled suspicion crosses the line (see ArmsDefense).
            AdaptivePolicy::Band top;
            top.min_suspicion = cell.defense->quarantine_suspicion;
            top.sigma_multiplier =
                tenant.adaptive.bands.empty() ? 4.0 : tenant.adaptive.bands.back().sigma_multiplier;
            top.expose_raw_outputs = false;
            top.refuse_queries = true;
            tenant.adaptive.bands.push_back(top);
        }
        tenant.power_noise_sigma = ar.power_noise_rel * deployed_weight_scale(fleet.front());
    }

    // Benign tenants stream for the whole campaign; their refusals and
    // throughput under this cell's policy are the defender's cost.
    std::vector<Session> benign;
    benign.reserve(ar.benign_clients);
    for (std::size_t c = 0; c < ar.benign_clients; ++c) {
        // Each benign tenant is its own admission principal (ignored by
        // non-attribution cells: the engine is off there).
        SessionConfig benign_tenant = tenant;
        benign_tenant.source = 1000 + c;
        benign.push_back(service.open_session(benign_tenant));
    }
    std::vector<BenignOutcome> benign_out(ar.benign_clients);
    const auto benign_t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(ar.benign_clients);
    for (std::size_t c = 0; c < ar.benign_clients; ++c) {
        clients.emplace_back([&, c] {
            benign_out[c] =
                run_benign_client(benign[c], split.test, ar.benign_queries, cell_seed ^ (c + 1));
        });
    }

    attack::AdaptiveAttackerConfig config = ar.attacker;
    config.strategy = cell.strategy;
    config.seed = cell_seed;
    // The attacker's *real* principal; Forge overrides it per rotation
    // with freshly fabricated SourceIds.
    SessionConfig attacker_tenant = tenant;
    attacker_tenant.source = 1;
    attack::AdaptiveAttacker attacker(service, attacker_tenant, config);
    cell.attacker = attacker.run(probe_pool, camouflage);

    for (std::thread& t : clients) t.join();
    cell.benign_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - benign_t0).count();
    for (const BenignOutcome& b : benign_out) {
        cell.benign_answered += b.answered;
        cell.benign_refused += b.refused;
    }

    if (service.attribution_enabled()) {
        cell.alert = service.attribution_alert();
        cell.campaigns = service.attribution_campaign_count();
        // A benign session's campaign should contain exactly itself; a
        // larger cluster means a clean tenant was blamed for someone
        // else's probes (the false-merge count bench_attrib gates on 0).
        for (const Session& b : benign) {
            if (service.attribution_campaign_of(b.id()).sessions > 1) {
                ++cell.benign_false_merges;
            }
        }
        cell.attrib_snapshot = service.attribution_snapshot();
    }

    if (cell.attacker.collected > 0) {
        const nn::SingleLayerNet surrogate =
            attack::fit_least_squares_surrogate(cell.attacker.data, ar.lambda_ridge, pool);
        cell.fidelity =
            surrogate_fidelity(surrogate, victim.net, split.test.inputs(), ar.eval_limit);
    }
}

ScenarioOutcome run_experiment(const ScenarioRunner& runner, const ScenarioSpec& spec,
                               const ArmsRaceOptions& ar) {
    if (!spec.defenses.empty()) {
        throw ConfigError("arms-race scenarios do not support spec defenses (the "
                          "defenses under study are session policies: rate + adaptive)");
    }
    if (ar.strategies.empty() || ar.defenses.empty()) {
        throw ConfigError("arms-race needs at least one strategy and one defense policy");
    }
    ScenarioOutcome outcome;
    const data::DataSplit split = load_split(spec);
    // One victim, trained once: every cell redeploys the same weights,
    // so fidelity differences come from the arms race, not training.
    const TrainedVictim victim = train_victim(split, spec.victim);
    ThreadPool* const pool = runner.pool();
    outcome.label = experiment_label(spec) + "/arms-race";

    // Shared detector enrolment for the suspicion-scaled cells (clean
    // training signatures on a reference deployment of the victim).
    std::unique_ptr<sidechannel::CurrentSignatureDetector> detector;
    const bool any_scaled =
        std::any_of(ar.defenses.begin(), ar.defenses.end(),
                    [](const ArmsDefense& d) { return d.suspicion_scaled; });
    std::vector<CrossbarOracle> reference;
    if (any_scaled) {
        reference = deploy_victim_fleet(victim.net, spec.victim, 1);
        const data::Dataset enrollment = ar.detector_enrollment > 0
                                             ? split.train.take(ar.detector_enrollment)
                                             : split.train;
        detector = std::make_unique<sidechannel::CurrentSignatureDetector>(
            reference.front().hardware_for_evaluation(), enrollment, ar.detector);
    }

    // High-leverage probe inputs: amplified uniform noise covers input
    // space far better than the clean manifold (a stronger least-squares
    // design, higher power-channel SNR) but drives per-line currents
    // past the detector's clean envelope — exactly the tension the
    // Spread strategy plays against.
    tensor::Matrix probe_pool(512, split.train.input_dim());
    {
        Rng rng(ar.seed ^ 0xAB0BEull);
        double* v = probe_pool.data();
        for (std::size_t i = 0; i < probe_pool.rows() * probe_pool.cols(); ++i) {
            v[i] = ar.probe_strength * rng.uniform();
        }
    }

    // The attacker's small clean pool (Spread's camouflage material).
    const data::Dataset camouflage_set =
        split.train.take(std::max<std::size_t>(1, std::min(ar.camouflage_pool, split.train.size())));
    const tensor::Matrix& camouflage = camouflage_set.inputs();

    std::vector<ArmsCell> cells;
    cells.reserve(ar.strategies.size() * ar.defenses.size());
    for (const attack::AttackerStrategy strategy : ar.strategies) {
        for (const ArmsDefense& defense : ar.defenses) {
            ArmsCell cell;
            cell.strategy = strategy;
            cell.defense = &defense;
            cells.push_back(std::move(cell));
        }
    }

    // Fan the matrix out on the shared pool. Each cell owns its
    // deployment and service; parallel_for is nesting-safe, so the
    // cells' pooled GEMMs compose with the outer fan-out.
    const auto run_cell = [&](std::size_t i) {
        run_arms_cell(victim, spec.victim, split, ar, detector.get(), probe_pool, camouflage,
                      ar.seed ^ ((i + 1) * 0x9E3779B97F4A7C15ull), pool, cells[i]);
    };
    if (pool != nullptr) {
        parallel_for(*pool, cells.size(), run_cell);
    } else {
        parallel_for(cells.size(), run_cell);
    }

    Table table({"Strategy", "Defense", "Fidelity", "Collected", "Refused", "Raw denied",
                 "Sessions", "Wall (s)", "Benign ok", "Benign refused"});
    for (const ArmsCell& cell : cells) {
        const std::string strategy = attack::to_string(cell.strategy);
        const std::string key = strategy + "_" + cell.defense->name;
        table.begin_row();
        table.add(strategy);
        table.add(cell.defense->name);
        table.add(cell.fidelity, 3);
        table.add(static_cast<long long>(cell.attacker.collected));
        table.add(static_cast<long long>(cell.attacker.refused));
        table.add(static_cast<long long>(cell.attacker.raw_denied));
        table.add(static_cast<long long>(cell.attacker.sessions_used));
        table.add(cell.attacker.wall_seconds, 3);
        table.add(static_cast<long long>(cell.benign_answered));
        table.add(static_cast<long long>(cell.benign_refused));
        outcome.metrics["fidelity_" + key] = cell.fidelity;
        outcome.metrics["collected_" + key] = static_cast<double>(cell.attacker.collected);
        outcome.metrics["refused_" + key] = static_cast<double>(cell.attacker.refused);
        outcome.metrics["raw_denied_" + key] = static_cast<double>(cell.attacker.raw_denied);
        outcome.metrics["sessions_" + key] = static_cast<double>(cell.attacker.sessions_used);
        outcome.metrics["attacker_wall_s_" + key] = cell.attacker.wall_seconds;
        outcome.metrics["max_flagged_" + key] = cell.attacker.max_flagged_fraction;
        outcome.metrics["benign_answered_" + key] = static_cast<double>(cell.benign_answered);
        outcome.metrics["benign_refused_" + key] = static_cast<double>(cell.benign_refused);
        outcome.metrics["benign_qps_" + key] =
            cell.benign_wall_s > 0.0 ? static_cast<double>(cell.benign_answered) / cell.benign_wall_s
                                     : 0.0;
        if (cell.defense->attribution) {
            outcome.metrics["campaigns_" + key] = static_cast<double>(cell.campaigns);
            outcome.metrics["benign_false_merges_" + key] =
                static_cast<double>(cell.benign_false_merges);
            outcome.metrics["alert_" + key] = cell.alert ? 1.0 : 0.0;
            outcome.notes.emplace_back("attribution_" + key, cell.attrib_snapshot);
        }
    }
    outcome.tables.emplace_back("arms_race", std::move(table));
    outcome.metrics["victim_test_accuracy"] = victim.test_accuracy;
    outcome.metrics["planned_queries"] = static_cast<double>(ar.attacker.planned_queries);
    return outcome;
}

}  // namespace

ScenarioOutcome ScenarioRunner::run(const ScenarioSpec& spec) const {
    ScenarioOutcome outcome = std::visit(
        [&](const auto& options) { return run_experiment(*this, spec, options); },
        spec.experiment);
    outcome.name = spec.name;
    return outcome;
}

ScenarioOutcome ScenarioRunner::run(const std::string& name) const {
    return run(builtin_scenarios().get(name));
}

}  // namespace xbarsec::core
