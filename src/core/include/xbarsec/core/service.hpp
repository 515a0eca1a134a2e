// Multi-tenant serving front-end over the attacker-facing Oracle stack.
//
// The paper's threat model is a *deployed* accelerator answering queries
// from many clients at once — one attacker hiding among benign tenants,
// each tenant under its own query budget and detection window. The bare
// `Oracle` API cannot express that: an Oracle stack is one device shared
// by every client. `OracleService` redesigns the serving surface around
// **sessions**:
//
//   OracleService service(stack.top(), config);   // shared deployment
//   Session alice = service.open_session(per_tenant_policy);
//   Session eve   = service.open_session(attacker_policy);
//   auto label    = alice.submit_label(u);         // std::future<int>
//
// Per-session policy (BudgetLedger, DetectorScreen, deterministic
// sensing-noise stream, exposure options) is enforced at submission, on
// the submitting thread, before anything reaches the shared backend —
// so one tenant exhausting its budget or tripping the detector never
// perturbs another tenant's service. The session is the only home of
// these policies; below the service sit only device layers
// (ObfuscatedOracle), which every tenant of that replica shares.
//
// Submissions are asynchronous (futures) and **coalesced**: a flusher
// thread gathers individually-submitted vectors from all sessions into
// `query_*_batch` calls against the backend — the one-GEMM fast path the
// kernel layer provides — flushing when `max_batch` rows are pending or
// after `max_wait`. Coalescing preserves submission order and groups
// only *consecutive* same-kind submissions into one backend batch, so a
// coalesced stream is bit-identical to the same queries issued serially
// (the backend's batched paths already guarantee batch = in-order
// scalars; see crossbar.hpp). Per-session sensing noise is drawn from a
// counter-based stream indexed by the session's own query ordinal, so it
// too is independent of how submissions were packed into batches.
//
// **Result cache.** An optional content-addressed cache sits in front of
// the per-replica coalescers: a scalar submission whose (kind, replica,
// input bytes) triple was answered before is served on the submitting
// thread without touching the backend. Hits still run the hitting
// session's *own* policy — exposure checks, detector screening, counter
// updates, and (for power) the session's private noise stream at its own
// ordinal — so a cached reply is exactly what that session would have
// been told, just sooner. Whether hits also charge the BudgetLedger is
// an explicit ServiceConfig decision (see CacheConfig). The cache is off
// by default, making the default service bit-identical to the uncached
// fleet. Sharing one cache across tenants opens a classic cross-tenant
// timing channel (hit latency leaks other tenants' query contents — see
// the service/mnist/cache-timing scenario); CacheConfig::partition_by_
// session closes it by giving every session a private key space.
//
// **Replica fleets.** A service may front N backend replicas instead of
// one — the same programmed weights deployed on N physically distinct
// (simulated) crossbars, each with its own device-variation signature
// (see xbar::replica_variation_seed and core::deploy_victim_fleet).
// Each replica owns a private coalescing queue, flusher thread, and
// recycled gather scratch, so replicas never contend on a shared queue
// lock; they share at most the one nesting-safe ThreadPool for the GEMM
// work underneath. A RoutingPolicy picks the replica at submission
// (after per-session policy ran): session-affine (all of a session's
// traffic lands on one replica — the default, which keeps the
// single-session case bit-identical to a single-backend service),
// round-robin (whole submissions rotate over replicas), or least-loaded
// (fewest enqueued-but-unanswered rows). Units are never split across
// replicas, and each replica's flusher preserves the arrival order of
// the units routed to it — so the answer stream of replica k is
// bit-identical to serially issuing those same queries against replica
// k alone.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <variant>
#include <vector>

#include "xbarsec/attrib/engine.hpp"
#include "xbarsec/core/decorators.hpp"
#include "xbarsec/core/oracle.hpp"

namespace xbarsec::core {

/// Thrown when a session is used after it (or its service) was closed.
class SessionClosed : public Error {
public:
    explicit SessionClosed(const std::string& what) : Error("session closed: " + what) {}
};

/// How a multi-replica service picks the backend replica for each
/// submission. Routing happens per *unit* (one scalar submission or one
/// explicitly-submitted batch) after per-session policy has admitted it;
/// a unit is never split across replicas.
enum class RoutingPolicy {
    /// Every submission of a session lands on the same replica (the
    /// session id picks it round-robin at open_session time). A single
    /// session therefore sees exactly one device — bit-identical to
    /// running against that replica alone, which is what keeps the
    /// committed single-session scenario goldens unchanged.
    SessionAffine,

    /// Units rotate over replicas via one atomic cursor, regardless of
    /// session. Maximises mixing: an attacker's query stream is answered
    /// by all N device signatures interleaved.
    RoundRobin,

    /// Each unit goes to the replica with the fewest
    /// enqueued-but-unanswered rows at submission time (ties take the
    /// lowest index). Adapts to replicas that answer slower (deeper
    /// stacks, contended pools).
    LeastLoaded,
};

std::string to_string(RoutingPolicy policy);

/// Parses "session-affine" / "round-robin" / "least-loaded" (the
/// to_string spellings); throws ConfigError otherwise.
RoutingPolicy parse_routing_policy(const std::string& name);

/// Content-addressed result cache over the serving layer. Keys are
/// (query kind, replica index, input-row bytes) — plus the session id
/// when partitioned — so a cached answer is always one the *same*
/// backend produced for the *same* bytes. Only scalar (one-row)
/// submissions are cached or served from the cache; explicitly-submitted
/// batches always reach a backend (they keep the stack's all-or-nothing
/// batch semantics and would fragment the key space).
///
/// Cached values are the backend's answers *before* per-session
/// transforms: a power hit re-applies the hitting session's own noise
/// stream at the session's own ordinal (which advances on hits exactly
/// as on misses). On a deterministic stack a hit is therefore
/// bit-identical to recomputation; on a noisy stack it replays the first
/// measurement instead of drawing a fresh one — enable it there only
/// when that freeze is acceptable.
struct CacheConfig {
    /// Off by default: the cache-off service is bit-identical to the
    /// uncached fleet (committed goldens depend on this).
    bool enabled = false;

    /// Maximum cached entries; least-recently-used entries are evicted
    /// beyond it. Must be > 0 when enabled.
    std::size_t capacity = 2048;

    /// Give every session a private key space. Closes the cross-tenant
    /// cache-timing side channel (one tenant can no longer learn whether
    /// another tenant queried some input by timing its own probe) at the
    /// cost of per-tenant duplication inside `capacity`.
    bool partition_by_session = false;

    /// Whether a cache hit charges the session's BudgetLedger. Default
    /// true: the paper's budget semantics cap what a client *learns*,
    /// and a hit answers a query just like a miss does. Set false to
    /// meter only backend work — cheaper per hit (no ledger mutex) but
    /// an attacker can then replay popular inputs for free
    /// (bench_service's hit_charge series measures the cost of keeping
    /// the default). Session counters always count hits either way.
    bool hits_charge_budget = true;
};

/// Cross-session attribution tier (ServiceConfig::attribution): the
/// service-level memory that outlives sessions. When enabled, every
/// admitted submission feeds an attrib::AttributionEngine (per-source
/// windows, a global probe-population alert window, and query-overlap
/// campaign clustering), and admission reacts to the *pooled* picture:
///
///   * AdaptivePolicy bands are selected on the session's whole
///     campaign window (same-source siblings and overlap-merged
///     sessions included), so rotating sessions no longer resets the
///     suspicion state or restarts the detection warm-up;
///   * rate limiting moves from per-session to per-source token buckets
///     (`source_rate`): a rotated session of the same source draws from
///     the same bucket — and distinct benign tenants stop contending
///     for one shared allowance;
///   * while the deployment-level alert is hot, the adaptive warm-up is
///     suspended and a submission carrying detector-flagged or
///     suspicious-shaped rows is escalated per-query (raw withheld,
///     strongest-band sensing noise), which closes the window between a
///     forged source's first query and its campaign being clustered.
///
/// Off by default: the attribution-off service is bit-identical to the
/// PR 8 admission path (no hashing, no engine, no source buckets).
struct AttributionConfig {
    bool enabled = false;

    /// Detection/clustering parameters of the engine.
    attrib::EngineConfig engine{};

    /// Per-*source* token bucket applied at admission next to (and
    /// typically instead of) SessionConfig::rate. All sessions opened
    /// with the same SessionConfig::source share one bucket; source 0
    /// (anonymous) sessions share the anonymous bucket. Default off.
    RateLimit source_rate{};

    /// Time source for the source buckets (nullptr = steady clock).
    TokenBucket::ClockFn source_clock = nullptr;
};

/// Service-wide knobs: the worker pool behind the backend's batched
/// query paths and the coalescing-queue flush policy.
struct ServiceConfig {
    /// Workers for a service-owned ThreadPool (0 = none: the backend
    /// runs its batched paths serially unless it already carries a
    /// pool). Ignored when `pool` is set.
    std::size_t workers = 0;

    /// External pool to use instead of owning one (not owned; must
    /// outlive the service). The scenario benches pass their shared pool
    /// through here. With a replica fleet, all replica flushers share
    /// this one nesting-safe pool for their backend GEMMs.
    ThreadPool* pool = nullptr;

    /// Flush a replica's coalescing queue once this many input rows are
    /// pending on it. Also the maximum rows per backend batch call —
    /// larger submissions are split, in order, which the backend
    /// reproduces bit-identically.
    ///
    /// Note that `max_batch` is a *cap*, not a target: a flush can never
    /// carry more rows than the clients had in flight when the window
    /// closed, so the realised mean batch saturates at roughly
    /// (clients × per-client pipeline depth) regardless of how high
    /// max_batch is raised — and `max_wait` closes the window early
    /// whenever the in-flight supply drains before max_batch fills.
    /// BENCH_service.json's `depth@*` series isolates exactly this
    /// interaction (the historical "max_batch@1024 plateaus near 437
    /// rows" anomaly: 8 clients × 64-deep pipelines can never have 1024
    /// rows pending).
    std::size_t max_batch = 256;

    /// Flush latency bound: pending work never waits longer than this
    /// for more submissions to coalesce with. See the max_batch note —
    /// under a finite client pipeline this window, not max_batch, is
    /// what usually closes a batch. Zero means *flush immediately*:
    /// the flusher skips the coalescing window outright (no zero-length
    /// timed wait spinning the flusher hot) and batches only what was
    /// already pending when it woke.
    std::chrono::microseconds max_wait{200};

    /// Replica-selection policy (single-replica services ignore it).
    RoutingPolicy routing = RoutingPolicy::SessionAffine;

    /// Content-addressed result cache in front of the coalescers.
    CacheConfig cache;

    /// Cross-session attribution tier (off by default — bit-identical
    /// to the attribution-free admission path).
    AttributionConfig attribution;
};

/// Per-session policy: what this client may see and what it costs them.
/// All-default = a transparent pass-through session (the single-client
/// special case every pre-service scenario runs through).
struct SessionConfig {
    /// Per-session query budget (all-zero = unlimited). Charged
    /// all-or-nothing at submission; a refused submission throws
    /// QueryBudgetExceeded and charges (and counts) nothing.
    QueryBudget budget{};

    /// When set, every inference submission is screened through this
    /// (shared, already enrolled) detector with a session-private
    /// flagged/screened window. Blocking sessions throw QueryRefused at
    /// submission. The detector object itself must outlive the session.
    const sidechannel::CurrentSignatureDetector* detector = nullptr;
    bool block_flagged = false;

    /// Per-session additive Gaussian sensing noise on the power channel
    /// (weight units). Drawn from a counter-based stream indexed by the
    /// session's power-query ordinal, so the values a session sees are a
    /// pure function of (noise_seed, how many power queries it has made)
    /// — bit-identical whether its submissions coalesced or ran serially,
    /// and independent of other sessions' traffic.
    double power_noise_sigma = 0.0;
    std::uint64_t noise_seed = 0x5E5510Ull;

    /// Exposure options for this client (AND-ed with the deployment's
    /// own OracleOptions, which still apply at the backend).
    bool expose_raw_outputs = true;
    bool expose_power = true;

    /// Per-session token-bucket rate limit: sustained query rows/sec
    /// with a burst allowance, spent at submission (cache hits included
    /// — a hit answers a query exactly like a miss does). A submission
    /// the bucket cannot cover throws RateLimited and charges (and
    /// counts) nothing; a submission refused *after* rate admission
    /// (budget, shutdown) refunds its tokens. Default off — the
    /// admission path is bit-identical to an unlimited session.
    RateLimit rate{};

    /// Time source for the rate bucket; nullptr = the monotonic system
    /// clock. Tests inject a manually-advanced clock so rate-limited
    /// admission (and the coalesced == serial bit-identity contract
    /// under it) is deterministic.
    TokenBucket::ClockFn rate_clock = nullptr;

    /// Suspicion-scaled defenses: the session's own DetectorScreen
    /// flagged-fraction picks an AdaptivePolicy band that multiplies
    /// power_noise_sigma and can withhold raw outputs. Requires
    /// `detector` (no screen ⇒ suspicion stays 0 and no band ever
    /// applies). Off (empty bands) by default — bit-identical to the
    /// static policy. Under ServiceConfig::attribution the band is
    /// selected on the session's pooled *campaign* window instead of
    /// the per-session window alone.
    AdaptivePolicy adaptive{};

    /// Admission identity: which authenticated principal (API key,
    /// account) opened this session. 0 = anonymous. Attribution pools
    /// suspicion windows and token buckets per source, so rotating
    /// sessions under one source buys the attacker nothing; a *forged*
    /// (fresh-per-rotation) source defeats the identity pooling but not
    /// the query-overlap campaign clustering. Ignored when
    /// ServiceConfig::attribution is off.
    attrib::SourceId source = 0;
};

namespace detail {
struct ServiceState;
struct SessionState;
}  // namespace detail

class OracleService;

/// A client's handle onto the service. Movable; closing (or destroying)
/// it rejects *new* submissions with SessionClosed while in-flight ones
/// complete normally. Distinct sessions are safe to drive fully
/// concurrently, and a single session's submissions may also race
/// (ordinals and charges are atomic) at the cost of nondeterministic
/// interleaving order.
class Session {
public:
    Session() = default;
    ~Session();
    Session(Session&&) noexcept = default;
    Session& operator=(Session&&) noexcept;
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /// Async scalar submissions: enqueue one vector, get a future. The
    /// coalescer packs concurrently pending vectors into one batched
    /// backend call.
    std::future<int> submit_label(tensor::Vector u);
    std::future<tensor::Vector> submit_raw(tensor::Vector u);
    std::future<double> submit_power(tensor::Vector u);

    /// Async batched submissions: all rows of U as one unit (charged
    /// all-or-nothing against the session budget).
    std::future<std::vector<int>> submit_labels(tensor::Matrix U);
    std::future<tensor::Matrix> submit_raw_batch(tensor::Matrix U);
    std::future<tensor::Vector> submit_power_batch(tensor::Matrix U);

    /// Synchronous Oracle view of this session: query_* submits with an
    /// immediate-flush hint and waits. Existing attack and side-channel
    /// entry points (collect_queries, probe_columns, evaluate_*) take
    /// Oracle& and therefore run unchanged through a session. counters()
    /// / reset_counters() act on the *session* counters.
    Oracle& oracle();

    /// This session's accepted-query counters (monotone between resets;
    /// refused submissions are not counted).
    QueryCounters counters() const;
    void reset_counters();

    /// Budget ledger view (what reset_counters does NOT clear — the
    /// budget keeps protecting the deployment across counter resets).
    /// Sessions with an unlimited budget keep no ledger and report
    /// zeros here; counters() is their telemetry.
    QueryCounters budget_spent() const;

    /// Detection window (zeros when the session has no detector).
    std::uint64_t screened() const;
    std::uint64_t flagged() const;
    double flagged_fraction() const;

    std::uint64_t id() const;

    /// The replica this session's traffic lands on under
    /// RoutingPolicy::SessionAffine (assigned round-robin from the
    /// session id at open_session; other policies ignore it).
    std::size_t home_replica() const;

    bool open() const;

    /// Rejects new submissions (SessionClosed); in-flight ones complete
    /// normally, and the session's counters stay readable. Idempotent.
    void close();

private:
    friend class OracleService;
    explicit Session(std::shared_ptr<detail::SessionState> state);

    std::shared_ptr<detail::SessionState> state_;
    std::unique_ptr<Oracle> oracle_view_;
};

/// Thread-safe serving front-end: owns the per-replica coalescing
/// queues, their flusher threads, and (optionally) the worker pool;
/// serves any number of concurrently open sessions over one shared
/// backend Oracle stack — or a fleet of N replica stacks with a
/// RoutingPolicy. Backends are not owned and must outlive the service
/// (each is typically a DecoratorStack top over a CrossbarOracle —
/// device layers below the service apply to all tenants of that
/// replica).
class OracleService {
public:
    explicit OracleService(Oracle& backend, ServiceConfig config = {});

    /// Fleet constructor: one coalescing queue + flusher per replica.
    /// All replicas must agree on inputs()/outputs() (same programmed
    /// weights; device state may differ per replica). Throws ConfigError
    /// on an empty fleet, a null entry, or mismatched shapes.
    explicit OracleService(const std::vector<Oracle*>& replicas, ServiceConfig config = {});

    /// Drains every replica queue (pending submissions complete) and
    /// joins the flushers. Open sessions are closed.
    ~OracleService();

    OracleService(const OracleService&) = delete;
    OracleService& operator=(const OracleService&) = delete;

    /// Opens a new session with the given per-client policy.
    Session open_session(SessionConfig config = {});

    std::size_t inputs() const;
    std::size_t outputs() const;
    std::size_t replica_count() const;

    /// Service-wide accepted-query counters: the fleet aggregate
    /// (saturating sum of the per-replica counters, since the last
    /// service-wide reset). Monotone between resets. Counts rows that
    /// reached a replica — cache hits never route, so they appear in
    /// cache_hits() and the sessions' own counters, not here.
    QueryCounters counters() const;

    /// Accepted-query counters of the rows routed to replica `replica`
    /// since the last service-wide reset. Monotone between resets;
    /// summing over replicas gives counters().
    QueryCounters replica_counters(std::size_t replica) const;

    /// Resets the service-wide and per-replica counters (sessions' own
    /// counters are per-tenant state and stay put).
    void reset_counters();

    /// Coalescing statistics: backend batch calls made, and total rows
    /// they carried (rows / flushes = realised mean coalesced batch).
    /// The no-argument forms aggregate over the fleet.
    std::uint64_t flushed_batches() const;
    std::uint64_t flushed_rows() const;
    std::uint64_t flushed_batches(std::size_t replica) const;
    std::uint64_t flushed_rows(std::size_t replica) const;

    /// Rows currently enqueued-but-unanswered on replica `replica` —
    /// the load signal LeastLoaded routing reads (a racy snapshot).
    std::size_t queue_depth(std::size_t replica) const;

    std::size_t sessions_opened() const;

    /// Result-cache telemetry (all zero when the cache is disabled).
    /// hits + misses = cache-eligible probes (scalar submissions that
    /// passed per-session policy); entries is the current population,
    /// bounded by CacheConfig::capacity. Monotone except entries.
    std::uint64_t cache_hits() const;
    std::uint64_t cache_misses() const;
    std::uint64_t cache_evictions() const;
    std::size_t cache_entries() const;
    double cache_hit_rate() const;  ///< hits / (hits + misses), 0 when idle

    /// Attribution telemetry, next to the per-replica counters. The
    /// aggregate forms are zero/empty/false on an attribution-free
    /// service; the keyed accessors throw ConfigError for an unknown
    /// source/session or when attribution is disabled (the replica
    /// accessor convention).
    bool attribution_enabled() const;
    bool attribution_alert() const;
    std::size_t attribution_source_count() const;
    std::vector<attrib::SourceId> attribution_sources() const;
    attrib::SourceCounters attribution_source_counters(attrib::SourceId source) const;
    std::size_t attribution_campaign_count() const;
    std::vector<attrib::CampaignCounters> attribution_campaigns() const;
    attrib::CampaignCounters attribution_campaign_of(std::uint64_t session) const;

    /// The engine's JSON snapshot ("{}" when attribution is off) —
    /// what bench_attrib embeds in BENCH_attrib.json.
    std::string attribution_snapshot() const;

    /// The pool this service carries for the backend's batched paths:
    /// the external `config.pool` if one was given, else the owned pool
    /// (`config.workers > 0`), else null. The service does not rewire
    /// the backends — callers connect it (e.g. via
    /// `BackendOracle::set_thread_pool(service.pool())`).
    ThreadPool* pool();

    const ServiceConfig& config() const;

private:
    std::shared_ptr<detail::ServiceState> state_;
    std::unique_ptr<ThreadPool> owned_pool_;
    std::vector<std::thread> flushers_;  ///< one per replica
};

}  // namespace xbarsec::core
