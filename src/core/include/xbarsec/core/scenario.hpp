// Named experiment scenarios and the unified runner.
//
// A ScenarioSpec is pure data: dataset × victim × device non-idealities ×
// defenses × one experiment, whose options struct is the alternative the
// spec's ExperimentOptions holds. The ScenarioRegistry maps names to
// specs (the built-in entries cover every figure/table of the paper plus
// defended and noisy-device variants), and ScenarioRunner turns any spec
// into a ScenarioOutcome — so a new workload is a registry entry, not a
// new translation unit. The fig3/fig4/fig5/table1 benches and the generic
// bench_scenarios driver all run through this path.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "xbarsec/attack/adaptive.hpp"
#include "xbarsec/common/table.hpp"
#include "xbarsec/core/defense.hpp"
#include "xbarsec/core/fig3.hpp"
#include "xbarsec/core/fig4.hpp"
#include "xbarsec/core/fig5.hpp"
#include "xbarsec/core/service.hpp"
#include "xbarsec/core/table1.hpp"
#include "xbarsec/data/loaders.hpp"

namespace xbarsec::core {

enum class DatasetKind { MnistLike, Cifar10Like };

std::string to_string(DatasetKind kind);

/// Side-channel probe quality: the attacker probes every column through
/// its session, and the report scores the recovered 1-norms against the
/// deployed weights.
struct ProbeQualityOptions {
    sidechannel::ProbeOptions probe;
    std::size_t topk = 16;  ///< ranking-agreement k
};

/// A multi-tenant serving workload: several clients drive one deployment
/// through concurrent OracleService sessions, each under its own policy.
struct MultiClientOptions {
    enum class Mode {
        HiddenAttacker,    ///< one attacker probing + attacking among benign tenants
        BudgetExhaustion,  ///< per-tenant budgets: the attacker exhausts its own, others run on
        DetectorIsolation, ///< per-session detection windows must not bleed between tenants
    };

    Mode mode = Mode::HiddenAttacker;

    std::size_t benign_clients = 4;    ///< concurrent benign sessions
    std::size_t benign_queries = 256;  ///< clean label queries per benign client

    /// Single-pixel attack strength for the attacker's inference queries
    /// (relative to the clean input maximum, as in Fig. 4's sweeps).
    double attack_strength = 10.0;
    std::size_t attack_queries = 64;  ///< adversarial queries the attacker issues

    /// Per-tenant budget for Mode::BudgetExhaustion (applied to every
    /// session; sized so the attacker's probe exhausts it but benign
    /// traffic fits).
    QueryBudget tenant_budget{};

    /// Detector config for the per-session screens (HiddenAttacker and
    /// DetectorIsolation enrol one shared detector, screened per session).
    sidechannel::DetectorConfig detector{};
    std::size_t detector_enrollment = 256;

    std::uint64_t seed = 7;
};

std::string to_string(MultiClientOptions::Mode mode);

/// A replica-fleet extraction sweep: the attacker runs a surrogate
/// extraction against a fleet of N physically distinct replicas of the
/// same victim (per-replica device variation via
/// xbar::replica_variation_seed) and we measure how fidelity depends on
/// how many device signatures its query stream mixes — one point per
/// replica count (Axis::ReplicaCount) or per routing policy
/// (Axis::Routing). Queries are submitted per-row and pipelined, so
/// routing actually spreads them over the fleet (a single batched
/// submission is one unit and would land on one replica).
struct ReplicaSweepOptions {
    enum class Axis {
        ReplicaCount,  ///< sweep replica_counts at `routing`
        Routing,       ///< sweep routings at routing_replicas replicas
    };

    Axis axis = Axis::ReplicaCount;

    std::vector<std::size_t> replica_counts = {1, 2, 4};
    RoutingPolicy routing = RoutingPolicy::SessionAffine;  ///< for Axis::ReplicaCount
    std::vector<RoutingPolicy> routings = {RoutingPolicy::SessionAffine,
                                           RoutingPolicy::RoundRobin,
                                           RoutingPolicy::LeastLoaded};
    std::size_t routing_replicas = 4;  ///< fleet size for Axis::Routing

    std::size_t queries = 1000;     ///< attacker query budget per point
    double lambda_ridge = 0.005;    ///< least-squares surrogate ridge
    std::size_t eval_limit = 500;   ///< test rows for the fidelity estimate
    std::uint64_t seed = 7;
};

std::string to_string(ReplicaSweepOptions::Axis axis);

/// The cross-tenant cache-timing side channel: a victim session queries
/// a secret subset of a public candidate pool through a shared result
/// cache; an attacker session then times its own probes of every
/// candidate and ranks them by latency (a resident entry answers on the
/// submitting thread, a miss pays the queue roundtrip + backend batch).
/// Reported as the Mann-Whitney AUC of that ranking against the true
/// membership — ≈1.0 on a shared cache, ≈0.5 once
/// CacheConfig::partition_by_session keys the victim's entries away from
/// the attacker's probes. Both modes run from one trained victim.
struct CacheTimingOptions {
    std::size_t candidate_pool = 64;    ///< public candidate inputs (victim queries half)
    std::size_t cache_capacity = 4096;  ///< sized so victim entries stay resident
    std::size_t probe_repeats = 4;      ///< attacker timing passes per candidate
    std::uint64_t seed = 7;
};

/// One defense policy in the arms race: what every session of the cell's
/// deployment is opened with (the deployment cannot single the attacker
/// out, so benign tenants pay the same policy).
struct ArmsDefense {
    std::string name;      ///< cell label, e.g. "rate+adaptive"
    RateLimit rate{};      ///< per-session token bucket (default off)
    bool suspicion_scaled = false;  ///< enrol the detector + AdaptivePolicy

    /// Cross-session attribution cell: enable the AttributionEngine on
    /// the deployment. Sessions are admitted under per-source
    /// identities (benign tenant i → source 1000+i, the attacker →
    /// source 1 unless it forges); suspicion bands read campaign-pooled
    /// windows, so session rotation stops resetting them.
    bool attribution = false;

    /// Per-*source* token bucket for attribution cells (replaces the
    /// tight per-session bucket: the allowance follows the principal
    /// across rotations, so it can afford a generous burst that a
    /// benign tenant's whole workload fits inside).
    RateLimit source_rate{};

    /// Quarantine rung for attribution cells: when > 0, a top
    /// AdaptivePolicy band with `refuse_queries` is appended at this
    /// campaign-pooled suspicion. Once a campaign's pooled windows cross
    /// it, every submission of every session attributed to the campaign
    /// is refused — including in-distribution camouflage, which is what
    /// per-query escalation cannot touch (camouflage rows are clean, and
    /// one-hot labels on clean inputs still distill the victim). 0 = off.
    double quarantine_suspicion = 0.0;

    /// Override for EngineConfig::alert_min_screened in attribution
    /// cells (0 keeps the engine default). The arms-race campaign is
    /// short relative to a real deployment, so the cell trips the
    /// deployment alert on less evidence.
    std::size_t alert_min_screened = 0;

    /// Override for EngineConfig::churn_fresh_sources (0 keeps the
    /// engine default). Lowered for the short arms-race campaign the
    /// same way as alert_min_screened: the cell only ever onboards a
    /// couple of benign principals, so a small threshold still has a
    /// wide benign margin.
    std::size_t churn_fresh_sources = 0;
};

/// The arms race: every attacker strategy against every defense policy,
/// on one trained victim. Each cell deploys a fresh single-replica
/// service, opens benign tenants and an AdaptiveAttacker under the same
/// per-session policy, and records extraction fidelity vs. what the
/// defense cost the benign tenants (refusals and throughput).
struct ArmsRaceOptions {
    std::vector<attack::AttackerStrategy> strategies = {
        attack::AttackerStrategy::Fixed, attack::AttackerStrategy::Throttle,
        attack::AttackerStrategy::Rotate, attack::AttackerStrategy::Spread};

    std::vector<ArmsDefense> defenses = {
        {"open", RateLimit{}, false},
        {"rate", RateLimit{400.0, 48.0}, false},
        {"rate+adaptive", RateLimit{400.0, 48.0}, true},
    };

    /// Campaign parameters shared by every cell; `strategy` is
    /// overwritten per cell, `seed` is offset per cell.
    attack::AdaptiveAttackerConfig attacker;

    /// Benign tenants streaming concurrently with the attacker in every
    /// cell — their refused/answered counts are the defender's cost.
    std::size_t benign_clients = 2;
    std::size_t benign_queries = 192;

    /// Clean samples the attacker is assumed to possess for Spread's
    /// camouflage. Kept small on purpose: an attacker with the victim's
    /// data distribution would not need to extract the model, and a
    /// small pool bounds how much extraction value camouflage queries
    /// can add (repeats of the same few inputs span a tiny subspace).
    std::size_t camouflage_pool = 64;

    double lambda_ridge = 0.005;  ///< least-squares surrogate ridge
    std::size_t eval_limit = 400;

    /// Probe amplitude: probe inputs are uniform per-pixel in
    /// [0, probe_strength]. Clean pixels live in [0, 1]; the attacker
    /// drives its probes harder for power-channel SNR and least-squares
    /// leverage, which pushes their per-line currents past the
    /// detector's auto-calibrated clean envelope (≈2-3× the clean
    /// range) — high-value queries are exactly the detectable ones.
    double probe_strength = 6.0;

    /// Suspicion-scaled cells: shared detector enrolment and the policy
    /// every session runs under. The base per-session sensing-noise
    /// sigma is `power_noise_rel` × max_j ‖W[:,j]‖₁ of the deployed
    /// weights; escalated bands multiply it.
    sidechannel::DetectorConfig detector{};
    std::size_t detector_enrollment = 256;
    AdaptivePolicy adaptive = AdaptivePolicy::escalate_at(0.2, 4.0);
    double power_noise_rel = 0.02;

    std::uint64_t seed = 7;
};

/// The experiment a spec runs: the held alternative selects the runner.
using ExperimentOptions =
    std::variant<Fig3Options, Fig4Options, Fig5Options, Table1Options, ProbeQualityOptions,
                 MultiClientOptions, ReplicaSweepOptions, CacheTimingOptions, ArmsRaceOptions>;

/// A complete named workload.
struct ScenarioSpec {
    std::string name;         ///< registry key, e.g. "fig4/mnist/softmax"
    std::string description;  ///< one-line summary for listings

    DatasetKind dataset = DatasetKind::MnistLike;
    data::LoadOptions load;
    VictimConfig victim = VictimConfig::defaults(OutputConfig::softmax_ce());
    std::vector<DefenseSpec> defenses;
    ExperimentOptions experiment;
};

/// Shrinks a spec to CI-smoke size (tiny datasets, minimal sweeps of the
/// experiment it holds).
void apply_smoke(ScenarioSpec& spec);

/// Name → spec map with ordered listing. Lookup of an unknown name
/// throws ConfigError listing every registered entry.
class ScenarioRegistry {
public:
    /// Registers a spec; throws ConfigError on empty or duplicate names.
    void add(ScenarioSpec spec);

    bool contains(const std::string& name) const;
    const ScenarioSpec& get(const std::string& name) const;

    /// Registered names (sorted); optionally filtered to a prefix.
    std::vector<std::string> names(const std::string& prefix = "") const;
    std::size_t size() const { return specs_.size(); }

private:
    std::map<std::string, ScenarioSpec> specs_;
};

/// The global registry, pre-populated with the built-in scenarios on
/// first use.
ScenarioRegistry& builtin_scenarios();

/// A trained victim deployed on the crossbar with its power obfuscation
/// set and fronted by an OracleService — ready for an attacker. Owns
/// everything it references. Every experiment drives the deployment
/// through a service session. The default session is opened with the
/// spec's policy defenses (budget, detector, sensing noise; see
/// apply_defenses), and multi-client experiments open further sessions
/// on the same service.
class DeployedScenario {
public:
    const ScenarioSpec& spec() const { return spec_; }
    const data::DataSplit& split() const { return split_; }
    const TrainedVictim& victim() const { return victim_; }

    /// The physical deployment, power obfuscation included (what the
    /// service's sessions serve; direct queries bypass the service and
    /// every session policy).
    CrossbarOracle& backend() { return *backend_; }

    /// The serving front-end over the backend (open more sessions here).
    OracleService& service() { return *service_; }

    /// The default session every single-client experiment runs through:
    /// the attacker-facing Oracle, so existing attack code runs unchanged.
    Session& session() { return session_; }

    /// The enrolled detector (non-null when the spec asked for one or a
    /// multi-client experiment enrolled one); shared, read-only.
    const sidechannel::CurrentSignatureDetector* enrolled_detector() const {
        return detector_.get();
    }

private:
    friend class ScenarioRunner;
    DeployedScenario() = default;

    ScenarioSpec spec_;
    data::DataSplit split_;
    TrainedVictim victim_;
    // Heap-held so the oracles keep their addresses when the
    // DeployedScenario itself is moved.
    std::unique_ptr<CrossbarOracle> backend_;
    std::unique_ptr<sidechannel::CurrentSignatureDetector> detector_;
    // Declared after the backend (and destroyed before it): the session
    // must close before the service joins its flusher, which must happen
    // before the backend it serves goes away.
    std::unique_ptr<OracleService> service_;
    Session session_;
};

/// Everything a scenario produced, in renderable form.
struct ScenarioOutcome {
    std::string name;
    std::string label;  ///< dataset/activation label of the experiment

    std::vector<std::pair<std::string, Table>> tables;
    std::vector<std::pair<std::string, std::string>> notes;  ///< e.g. ASCII heat maps
    std::map<std::string, double> metrics;

    /// Per-pixel maps worth re-plotting (Figure 3 panels).
    struct Grid {
        std::string name;
        tensor::Vector map;
        data::ImageShape shape;
    };
    std::vector<Grid> grids;

    /// The attacker's query counters after the experiment: the backend's
    /// for Fig3/Fig4/probe, the attacker session's for multi-client, and
    /// zero for the experiments that deploy their own victims (Fig5,
    /// Table1, replica sweep, cache timing, arms race).
    QueryCounters attacker_cost;
};

/// Runs any ScenarioSpec end to end.
class ScenarioRunner {
public:
    /// `pool` parallelises batched oracle queries and fig5 runs.
    explicit ScenarioRunner(ThreadPool* pool = nullptr) : pool_(pool) {}

    /// Loads data, trains the victim, deploys it, sets its power
    /// obfuscation and opens the default session with the spec's policy
    /// defenses (experiments that manage their own training — Fig5,
    /// Table1 — do not use this). Throws ConfigError for a policy defense
    /// on a multi-client spec, whose tenants each open their own session.
    DeployedScenario deploy(const ScenarioSpec& spec) const;

    /// Runs the experiment the spec holds.
    ScenarioOutcome run(const ScenarioSpec& spec) const;

    /// Convenience: builtin_scenarios() lookup + run.
    ScenarioOutcome run(const std::string& name) const;

    /// The pool the experiments run on (null = serial).
    ThreadPool* pool() const { return pool_; }

private:
    ThreadPool* pool_ = nullptr;
};

}  // namespace xbarsec::core
