#include "xbarsec/core/service.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <limits>
#include <list>
#include <span>
#include <unordered_map>
#include <utility>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "xbarsec/attrib/sketch.hpp"
#include "xbarsec/common/arena.hpp"
#include "xbarsec/common/rng.hpp"

namespace xbarsec::core {

std::string to_string(RoutingPolicy policy) {
    switch (policy) {
        case RoutingPolicy::SessionAffine: return "session-affine";
        case RoutingPolicy::RoundRobin: return "round-robin";
        case RoutingPolicy::LeastLoaded: return "least-loaded";
    }
    return "?";
}

RoutingPolicy parse_routing_policy(const std::string& name) {
    // Bench and example CLIs pass user input through verbatim, so accept
    // any trim/case/separator spelling ("RoundRobin", " least-loaded ",
    // "SESSION_AFFINE"): drop whitespace and -/_ separators, case-fold,
    // and match the canonical words.
    std::string key;
    key.reserve(name.size());
    for (const char ch : name) {
        const auto c = static_cast<unsigned char>(ch);
        if (std::isspace(c) != 0 || ch == '-' || ch == '_') continue;
        key.push_back(static_cast<char>(std::tolower(c)));
    }
    if (key == "sessionaffine") return RoutingPolicy::SessionAffine;
    if (key == "roundrobin") return RoutingPolicy::RoundRobin;
    if (key == "leastloaded") return RoutingPolicy::LeastLoaded;
    throw ConfigError("unknown routing policy '" + name +
                      "'; expected session-affine, round-robin, or least-loaded");
}

namespace detail {

enum class QueryKind { Label, Raw, Power };

/// The content-addressed result cache (ServiceConfig::cache). Keys mix
/// (kind, replica index, partition) and the input row's content address
/// (attrib::hash_row, over its bit pattern) into one 64-bit hash, so a
/// row attribution has hashed is not hashed again for its key. A probe
/// verifies the stored entry byte-for-byte before answering, so a hash
/// collision degrades to a miss, never to a wrong answer. Values are the
/// backend's *clean* answers — per-session transforms (power noise) are
/// re-applied by the hit path.
///
/// One mutex guards the LRU list and the index. That is deliberate: a
/// hit is a short critical section on the submitting thread while a miss
/// pays a queue roundtrip plus a backend batch — the latency asymmetry
/// the cache exists for, and exactly the cross-tenant timing signal the
/// service/mnist/cache-timing scenario measures (partitioning removes
/// the cross-tenant information, not the asymmetry).
class ResultCache {
public:
    explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

    /// One cached answer; `kind` (in the key) says which field is live.
    struct Value {
        int label = 0;
        tensor::Vector raw{};  ///< `{}`: a designated initialiser may omit it without a warning
        double power = 0.0;
    };

    static std::uint64_t key(QueryKind kind, std::size_t replica, std::uint64_t partition,
                             std::uint64_t row_hash) {
        // FNV-1a over the key fields and the row's content address,
        // finished with the counter-rng avalanche so the map sees
        // well-mixed buckets. The steps are the shared attrib machinery,
        // so attribution and these keys agree on input identity.
        std::uint64_t h = attrib::kContentHashOffset;
        h = attrib::content_hash_mix(h, static_cast<std::uint64_t>(kind));
        h = attrib::content_hash_mix(h, replica);
        h = attrib::content_hash_mix(h, partition);
        h = attrib::content_hash_mix(h, row_hash);
        return attrib::content_hash_finish(h);
    }

    /// Probes for an exact entry; a hit refreshes its LRU position.
    /// Every call counts toward hits/misses (callers probe only for
    /// cache-eligible submissions).
    bool lookup(std::uint64_t hash, QueryKind kind, std::size_t replica, std::uint64_t partition,
                std::span<const double> row, Value& out) {
        std::lock_guard lock(mutex_);
        const auto it = index_.find(hash);
        if (it == index_.end() || !matches(*it->second, kind, replica, partition, row)) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        lru_.splice(lru_.begin(), lru_, it->second);
        out = it->second->value;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }

    void insert(std::uint64_t hash, QueryKind kind, std::size_t replica, std::uint64_t partition,
                tensor::Vector input, Value value) {
        std::lock_guard lock(mutex_);
        const auto it = index_.find(hash);
        if (it != index_.end()) {
            // Concurrent misses of the same input race to insert (both
            // executed on the backend), or — astronomically rarely — a
            // 64-bit collision lands here; either way the slot keeps the
            // newest answer and its verification fields.
            Entry& e = *it->second;
            e.kind = kind;
            e.replica = replica;
            e.partition = partition;
            e.input = std::move(input);
            e.value = std::move(value);
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        if (index_.size() >= capacity_) {
            index_.erase(lru_.back().hash);
            lru_.pop_back();
            evictions_.fetch_add(1, std::memory_order_relaxed);
        }
        lru_.push_front(Entry{hash, kind, replica, partition, std::move(input), std::move(value)});
        index_.emplace(hash, lru_.begin());
    }

    std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
    std::uint64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }
    std::size_t entries() const {
        std::lock_guard lock(mutex_);
        return index_.size();
    }

private:
    struct Entry {
        std::uint64_t hash = 0;
        QueryKind kind = QueryKind::Label;
        std::size_t replica = 0;
        std::uint64_t partition = 0;
        tensor::Vector input;
        Value value;
    };

    static bool matches(const Entry& e, QueryKind kind, std::size_t replica,
                        std::uint64_t partition, std::span<const double> row) {
        if (e.kind != kind || e.replica != replica || e.partition != partition) return false;
        if (e.input.size() != row.size()) return false;
        // Bitwise identity, matching the hash: -0.0 != 0.0 here, and a
        // NaN row can still hit its own cached answer.
        return std::memcmp(e.input.data(), row.data(), row.size() * sizeof(double)) == 0;
    }

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::list<Entry> lru_;  ///< front = most recently used
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

/// One admitted submission: 1..N input rows of one kind from one
/// session, with the promise its results are delivered through. Built
/// once, after the charge; a cache hit resolves it on the submitting
/// thread, a miss is enqueued. Units are never split across backend
/// calls or replicas (an explicitly-submitted batch keeps the backend's
/// all-or-nothing semantics); a replica's coalescer only
/// *merges* consecutive same-kind units up to max_batch rows.
struct Unit {
    std::shared_ptr<SessionState> session;
    QueryKind kind = QueryKind::Label;
    bool scalar = false;
    tensor::Matrix inputs;
    std::uint64_t power_ordinal = 0;  ///< session noise-stream base (Power only)
    double power_sigma = 0.0;  ///< effective sensing-noise sigma at admission (Power only)
    std::uint64_t cache_hash = 0;     ///< submit-time key (cache_store only)
    bool cache_store = false;  ///< scalar cache miss: resolve() stores the clean answer too
    std::variant<std::promise<int>, std::promise<std::vector<int>>, std::promise<double>,
                 std::promise<tensor::Vector>, std::promise<tensor::Matrix>>
        promise;
};

/// One backend replica's serving state: its private coalescing queue,
/// flush signalling, and telemetry. Replicas never share a queue lock —
/// the only cross-replica contention is the (optional) shared ThreadPool
/// underneath the backend GEMMs.
struct ReplicaState {
    Oracle* backend = nullptr;
    std::size_t index = 0;

    std::mutex mutex;
    std::condition_variable cv;
    /// Producers append; the flusher swaps the whole vector against a
    /// recycled empty one, so the queue itself does not allocate in steady
    /// state. A submission still does: tests/test_service_cache.cpp pins
    /// 2 heap allocations per request-response label cache hit (the
    /// promise) and 5 per miss (the promise and the backend call's 3).
    std::vector<Unit> queue;
    std::size_t pending_rows = 0;
    /// When the queue last turned non-empty: the oldest pending unit's
    /// arrival, from which the coalescing window is timed.
    std::chrono::steady_clock::time_point first_pending;
    bool flush_now = false;
    bool stopping = false;

    /// Rows enqueued but not yet answered — the lock-free load signal
    /// LeastLoaded routing scans.
    std::atomic<std::size_t> inflight_rows{0};

    /// Per-replica accepted-query counters (fleet aggregate = sum).
    std::atomic<std::uint64_t> inference_count{0};
    std::atomic<std::uint64_t> power_count{0};

    std::atomic<std::uint64_t> flushed_batches{0};
    std::atomic<std::uint64_t> flushed_rows{0};
};

/// Cross-session attribution state (null unless attribution.enabled):
/// the engine (bookkeeping) plus the per-source token buckets the
/// service enforces from it. Buckets live here — not on sessions — so
/// the allowance survives rotation; the map only grows (sources are
/// principals, not sessions) and bucket addresses are stable.
struct AttribState {
    explicit AttribState(const AttributionConfig& config) : engine(config.engine) {}

    attrib::AttributionEngine engine;
    std::mutex bucket_mutex;
    std::unordered_map<attrib::SourceId, std::unique_ptr<TokenBucket>> buckets;
};

struct ServiceState {
    ServiceConfig config;
    std::size_t inputs = 0;
    std::size_t outputs = 0;

    std::vector<std::unique_ptr<ReplicaState>> replicas;
    std::atomic<std::uint64_t> rr_cursor{0};  ///< RoundRobin unit cursor

    /// Content-addressed result cache (null unless config.cache.enabled).
    std::unique_ptr<ResultCache> cache;

    /// Cross-session attribution (null unless config.attribution.enabled).
    std::unique_ptr<AttribState> attrib;

    std::atomic<std::uint64_t> next_session_id{1};

    /// Set by ~OracleService before it stops the replicas. A cache hit
    /// never reaches enqueue()'s `stopping` check, so it reads this one.
    std::atomic<bool> shut_down{false};
};

struct SessionState {
    std::shared_ptr<ServiceState> service;
    SessionConfig config;
    std::uint64_t id = 0;
    std::size_t home_replica = 0;  ///< SessionAffine target

    BudgetLedger ledger;
    std::unique_ptr<DetectorScreen> screen;  ///< null when the session has no detector
    std::unique_ptr<TokenBucket> bucket;     ///< null when the session has no rate limit

    /// The per-*source* bucket (owned by AttribState, shared by every
    /// session of this source); null when attribution or source_rate is
    /// off. Survives this session: rotation draws from the same bucket.
    TokenBucket* source_bucket = nullptr;

    std::atomic<std::uint64_t> inference_count{0};
    std::atomic<std::uint64_t> power_count{0};
    std::atomic<std::uint64_t> power_ordinal{0};  ///< noise-stream position, never reset
    std::atomic<bool> open{true};

    SessionState(std::shared_ptr<ServiceState> svc, SessionConfig cfg, std::uint64_t sid)
        : service(std::move(svc)), config(cfg), id(sid), ledger(cfg.budget) {
        home_replica = static_cast<std::size_t>((id - 1) % service->replicas.size());
        if (config.detector != nullptr) {
            screen = std::make_unique<DetectorScreen>(*config.detector, config.block_flagged);
        }
        if (!config.rate.unlimited()) {
            bucket = std::make_unique<TokenBucket>(config.rate, config.rate_clock);
        }
        if (AttribState* at = service->attrib.get()) {
            at->engine.note_session_open(id, config.source);
            const AttributionConfig& ac = service->config.attribution;
            if (!ac.source_rate.unlimited()) {
                std::lock_guard lock(at->bucket_mutex);
                std::unique_ptr<TokenBucket>& slot = at->buckets[config.source];
                if (slot == nullptr) {
                    slot = std::make_unique<TokenBucket>(ac.source_rate, ac.source_clock);
                }
                source_bucket = slot.get();
            }
        }
    }
};

namespace {

/// Per-session sensing noise for row `r` of a power unit: a pure
/// function of the session's seed, the effective (possibly
/// suspicion-scaled) sigma captured at admission and the row's ordinal in
/// the session's noise stream, so coalescing/batching cannot change it.
/// Zero when the session adds no noise.
double power_noise(const Unit& u, std::size_t r) {
    const std::uint64_t ordinal = u.power_ordinal + r;
    return u.power_sigma > 0.0
               ? u.power_sigma * Rng::normal_at(u.session->config.noise_seed, ordinal, 0)
               : 0.0;
}

/// The session's active suspicion band — null when the adaptive policy
/// is off, the session has no detector window, or the window is still
/// warming up. Read on the submitting thread at admission: a serial
/// submitter's escalation sequence is therefore deterministic and
/// independent of how its submissions coalesce into backend batches.
///
/// With attribution enabled (`campaign` non-null: the engine's view for
/// this session) the band is chosen on the session's whole *campaign*
/// window (same-source siblings and overlap-merged rotations included),
/// and a deployment alert waives the warm-up floor — a rotating attacker
/// inherits its own history instead of opening each session with a
/// clean slate.
const AdaptivePolicy::Band* adaptive_band(const SessionState& s,
                                          const attrib::AdmissionView* campaign) {
    if (!s.config.adaptive.enabled()) return nullptr;
    if (s.screen == nullptr && campaign == nullptr) return nullptr;
    std::uint64_t screened = s.screen != nullptr ? s.screen->screened() : 0;
    double suspicion = s.screen != nullptr ? s.screen->flagged_fraction() : 0.0;
    if (campaign != nullptr) {
        screened = std::max(screened, campaign->pooled_screened);
        // Campaign suspicion is the max of the detector-flagged and
        // probe-shaped row fractions: hard-driven extraction probes are
        // escalated even where the enrolled detector's coverage is
        // partial, while clean tenants stay near zero on both.
        suspicion = std::max(suspicion, campaign->pooled_suspicion);
        if (campaign->alert) {
            // The deployment is under active probing: warm-up no longer
            // shields a freshly rotated session. band_for still refuses
            // an entirely empty window (screened == 0).
            screened = std::max<std::uint64_t>(
                screened, std::max<std::uint64_t>(s.config.adaptive.min_screened, 1));
        }
    }
    return s.config.adaptive.band_for(suspicion, screened);
}

/// One submission's admission decision, made once by screen() on the
/// submitting thread and read by every later step: the quarantine and
/// probation refusals, the cache key, and a power reading's sigma.
struct Admission {
    /// Attribution is on, the deployment alert is up, and at least one
    /// of the rows was flagged or probe-shaped. An escalated submission
    /// is degraded per query (Raw → refused, Power → strongest-band
    /// sigma). Always false with attribution off.
    bool escalate = false;
    /// The session's source is on probation (attribution only).
    bool probation = false;
    /// adaptive_band() after this submission's rows were screened.
    const AdaptivePolicy::Band* band = nullptr;
    /// attrib::hash_row of the first row, when attribution hashed it.
    bool hashed = false;
    std::uint64_t row_hash = 0;
};

/// Sigma for one admitted power submission: the static sigma scaled by
/// the submission's band (identity when the policy is off — the default
/// service stays bit-identical), raised to the strongest band's
/// multiplier when the submission itself was escalated (deployment
/// alert + its own rows looked like probes). The per-query escalation
/// is what closes the pre-merge window — a forged source's first probes
/// get degraded before clustering catches up.
double power_sigma(const SessionState& s, const Admission& a) {
    double sigma = s.config.power_noise_sigma;
    if (a.band != nullptr) sigma *= a.band->sigma_multiplier;
    if (a.escalate && s.config.adaptive.enabled()) {
        sigma = std::max(sigma,
                         s.config.power_noise_sigma * s.config.adaptive.bands.back().sigma_multiplier);
    }
    return sigma;
}

/// Picks the replica for one admitted unit. SessionAffine pins the
/// session's home replica; RoundRobin rotates one atomic cursor;
/// LeastLoaded scans the racy inflight-row snapshots (ties take the
/// lowest index, so an idle fleet behaves like a fixed assignment).
ReplicaState& route(ServiceState& svc, const SessionState& s) {
    const std::size_t n = svc.replicas.size();
    if (n == 1) return *svc.replicas.front();
    switch (svc.config.routing) {
        case RoutingPolicy::SessionAffine: return *svc.replicas[s.home_replica];
        case RoutingPolicy::RoundRobin:
            return *svc.replicas[svc.rr_cursor.fetch_add(1, std::memory_order_relaxed) % n];
        case RoutingPolicy::LeastLoaded: {
            std::size_t best = 0;
            std::size_t best_load = std::numeric_limits<std::size_t>::max();
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t load =
                    svc.replicas[i]->inflight_rows.load(std::memory_order_relaxed);
                if (load < best_load) {
                    best = i;
                    best_load = load;
                }
            }
            return *svc.replicas[best];
        }
    }
    return *svc.replicas.front();
}

/// The first half of admission, on the submitting thread and before
/// routing (policy is per-session, not per-replica): exposure and the
/// detector screen. It runs for every submission, hit or miss, and takes
/// nothing a later refusal would have to give back; submit() charges
/// after it.
///
/// With attribution on, each row is hashed and classified once, and the
/// unit's rows reach the engine in one observe_unit call, whose view
/// (alert, probation, campaign window) every later step reads.
Admission screen(SessionState& s, QueryKind kind, const tensor::Matrix& U) {
    XS_EXPECTS(U.rows() > 0);
    XS_EXPECTS(U.cols() == s.service->inputs);
    AttribState* at = s.service->attrib.get();
    switch (kind) {
        case QueryKind::Label: break;
        case QueryKind::Raw:
            if (!s.config.expose_raw_outputs) {
                throw AccessDenied("raw outputs are not exposed to this session");
            }
            // Suspicion-scaled cutoff: a tenant whose screened traffic
            // looks adversarial loses raw-output access (labels still
            // work). Decided on the window *before* this submission is
            // screened, so the refusal depends only on past behaviour.
            if (s.config.adaptive.enabled()) {
                attrib::AdmissionView before;
                if (at != nullptr) before = at->engine.admission_view(s.id, s.config.source);
                if (const AdaptivePolicy::Band* band =
                        adaptive_band(s, at != nullptr ? &before : nullptr);
                    band != nullptr && !band->expose_raw_outputs) {
                    throw AccessDenied(
                        "raw outputs are withheld at this session's suspicion level");
                }
            }
            break;
        case QueryKind::Power:
            if (!s.config.expose_power) {
                throw AccessDenied("power measurement is not exposed to this session");
            }
            break;
    }
    Admission a;
    if (at == nullptr) {
        if (kind != QueryKind::Power && s.screen != nullptr) s.screen->screen_batch(U);
        a.band = adaptive_band(s, nullptr);
        return a;
    }
    // Attribution path: screen row by row so every row's detector
    // verdict and content hash reach the engine (power rows are not
    // detector-screened — same as the legacy path — but their shape
    // still feeds the probe-population window and the sketches). The
    // observations collect in thread-arena scratch, so a submission
    // allocates nothing for them once the arena is warm.
    const attrib::EngineConfig& ec = at->engine.config();
    Arena& arena = thread_arena();
    const Arena::Scope scratch(arena);
    const std::span<attrib::Observation> obs = arena.alloc<attrib::Observation>(U.rows());
    bool hot = false;
    std::size_t r = 0;
    try {
        for (; r < U.rows(); ++r) {
            const auto row = U.row_span(r);
            attrib::Observation& o = obs[r];
            o = attrib::Observation{};
            o.session = s.id;
            o.source = s.config.source;
            if (kind != QueryKind::Power && s.screen != nullptr) o.flagged = s.screen->screen(row);
            o.input_hash = attrib::hash_row(row);
            const attrib::RowFlags flags = attrib::AttributionEngine::row_flags(row, ec);
            o.suspicious = flags.suspicious;
            o.basis_like = flags.basis_like;
            hot = hot || o.flagged || o.suspicious;
        }
    } catch (...) {
        // A blocking screen refused row r: the engine still sees the rows
        // screened before it, as a row-by-row feed would have.
        at->engine.observe_unit(obs.first(r), s.id, s.config.source);
        throw;
    }
    const attrib::AdmissionView view = at->engine.observe_unit(obs, s.id, s.config.source);
    // Alert read *after* observing: a burst that trips the window
    // escalates from the same submission on.
    a.escalate = hot && view.alert;
    a.probation = view.probation;
    a.band = adaptive_band(s, &view);
    a.hashed = true;
    a.row_hash = obs[0].input_hash;
    return a;
}

/// Enqueues an admitted unit on `replica` and wakes its flusher.
/// `flush_hint` asks for an immediate flush (a synchronous caller is
/// already waiting). Throws SessionClosed, taking nothing, once the
/// service is shutting down.
void enqueue(ReplicaState& replica, Unit unit, bool flush_hint) {
    const std::size_t max_batch = unit.session->service->config.max_batch;
    const QueryKind kind = unit.kind;
    const std::size_t rows = unit.inputs.rows();
    bool wake = false;
    {
        std::lock_guard lock(replica.mutex);
        if (replica.stopping) throw SessionClosed("the service is shut down");
        // Charge the load signal *before* the push: LeastLoaded routing
        // reads inflight_rows lock-free, and a unit already sitting in the
        // queue must not count as zero load. One combined counter
        // (decremented only after the rows are answered, in flush()) also
        // keeps the queue→flusher migration coherent — the batch never
        // transiently disappears from or double-counts in the load
        // snapshot while the flusher drains the queue.
        replica.inflight_rows.fetch_add(rows, std::memory_order_relaxed);
        // Wake the flusher only on state transitions it is actually
        // waiting for — the first pending unit (it may be in its
        // indefinite wait) or a newly-met flush condition. Waking on
        // every submission would context-switch once per query under
        // pipelined load.
        wake = replica.queue.empty();
        if (wake) replica.first_pending = std::chrono::steady_clock::now();
        replica.queue.push_back(std::move(unit));
        replica.pending_rows += rows;
        if ((flush_hint || replica.pending_rows >= max_batch) && !replica.flush_now) {
            replica.flush_now = true;
            wake = true;
        }
    }
    if (kind == QueryKind::Power) {
        replica.power_count.fetch_add(rows, std::memory_order_relaxed);
    } else {
        replica.inference_count.fetch_add(rows, std::memory_order_relaxed);
    }
    if (wake) replica.cv.notify_all();
}

/// Answers a scalar unit from one clean answer, a cache hit's or its
/// backend row. A miss stores the answer in the cache first (once a
/// future resolves, its entry is probeable); a power reading gets the
/// session's own noise at the unit's ordinal, so a hit draws exactly what
/// recomputation would.
void resolve(const ReplicaState& replica, Unit& u, ResultCache::Value v) {
    if (u.cache_store) {
        const SessionState& s = *u.session;
        const std::uint64_t partition = s.service->config.cache.partition_by_session ? s.id : 0;
        s.service->cache->insert(u.cache_hash, u.kind, replica.index, partition, u.inputs.row(0),
                                 v);
    }
    switch (u.kind) {
        case QueryKind::Label: std::get<std::promise<int>>(u.promise).set_value(v.label); break;
        case QueryKind::Raw:
            std::get<std::promise<tensor::Vector>>(u.promise).set_value(std::move(v.raw));
            break;
        case QueryKind::Power:
            std::get<std::promise<double>>(u.promise).set_value(v.power + power_noise(u, 0));
            break;
    }
}

/// Admits one submission and answers it: a cache hit (scalar submissions
/// only — a cached batch would have to match row-for-row, which skewed
/// traffic never does) on this thread, anything else through a replica.
///
/// One straight line. First the refusals that take nothing: the session
/// handle, screen(), then escalation, probation and quarantine. Then it
/// takes the session's tokens, its source's tokens, its budget and its
/// counters, in that order, and one catch gives back exactly what was
/// taken when a later step refuses (a budget cap, a shut-down service).
/// Rate admission comes after screening (a screened-out submission spends
/// no tokens) and before the cache probe (a hit consumes rate like any
/// answered query, or replaying popular inputs would be rate-free); the
/// budget comes after the cache verdict, because whether a hit is charged
/// is CacheConfig::hits_charge_budget's decision.
///
/// A hit replays the hitting session's *own* policy — exposure,
/// screening, rate, budget, counters, and a power hit draws the session's
/// next noise ordinal — and resolve() answers it as the flusher answers a
/// scalar miss, so a session cannot tell (except by latency) whether its
/// answer was recomputed. Per-replica counters never see a hit: nothing
/// was enqueued.
template <typename T>
std::future<T> submit(const std::shared_ptr<SessionState>& session, QueryKind kind, bool scalar,
                      tensor::Matrix inputs, bool flush_hint) {
    if (session == nullptr || !session->open.load(std::memory_order_acquire)) {
        throw SessionClosed("submit on a closed session");
    }
    SessionState& s = *session;
    ServiceState& svc = *s.service;
    const Admission admission = screen(s, kind, inputs);
    if (admission.escalate && kind == QueryKind::Raw) {
        // Deployment alert + probe-shaped rows: raw outputs close
        // per-query, before campaign clustering has even merged the
        // session — a forged source gets no pre-attribution window.
        throw AccessDenied("raw outputs are withheld while the deployment alert is active");
    }
    // Attribution-level refusals run *after* screening so the refused
    // rows still feed the engine: the probe-population window stays hot
    // (the alert cannot be waited out by hammering a frozen source) and
    // overlap evidence keeps accruing against the campaign.
    if (admission.probation) {
        throw QueryRefused(
            "source is on probation: first seen while the deployment alert was active");
    }
    if (const AdaptivePolicy::Band* band = admission.band;
        band != nullptr && band->refuse_queries) {
        // Campaign quarantine: the top suspicion band refuses service
        // outright. Label-degraded answers still distill a model; an
        // attributed campaign gets nothing, and rotation lands every
        // fresh session straight back in the pooled window.
        throw QueryRefused("session's campaign is quarantined at this suspicion level");
    }
    const std::uint64_t rows = inputs.rows();
    const bool power = kind == QueryKind::Power;
    std::atomic<std::uint64_t>& count = power ? s.power_count : s.inference_count;
    bool took_tokens = false;
    bool took_source_tokens = false;
    bool took_budget = false;
    bool counted = false;
    try {
        if (s.bucket != nullptr) {
            s.bucket->acquire(rows);  // all-or-nothing: RateLimited takes nothing
            took_tokens = true;
        }
        if (s.source_bucket != nullptr) {
            s.source_bucket->acquire(rows);
            took_source_tokens = true;
        }
        const bool cacheable = svc.cache != nullptr && scalar;
        ReplicaState* replica = nullptr;
        std::uint64_t cache_hash = 0;
        ResultCache::Value cached;
        bool hit = false;
        if (cacheable) {
            // Route *before* probing: the replica index is part of the key
            // (replicas have distinct device-variation signatures, so their
            // answers are not interchangeable).
            replica = &route(svc, s);
            const std::uint64_t partition = svc.config.cache.partition_by_session ? s.id : 0;
            const std::uint64_t row_hash =
                admission.hashed ? admission.row_hash : attrib::hash_row(inputs.row_span(0));
            cache_hash = ResultCache::key(kind, replica->index, partition, row_hash);
            hit = svc.cache->lookup(cache_hash, kind, replica->index, partition,
                                    inputs.row_span(0), cached);
        }
        // An unlimited budget never refuses, so skip its mutex on the
        // per-query fast path.
        if ((!hit || svc.config.cache.hits_charge_budget) && !s.config.budget.unlimited()) {
            if (power) {
                s.ledger.charge_power(rows);
            } else {
                s.ledger.charge_inference(rows);
            }
            took_budget = true;
        }
        count.fetch_add(rows, std::memory_order_relaxed);
        counted = true;
        Unit unit{.session = session,
                  .kind = kind,
                  .scalar = scalar,
                  .inputs = std::move(inputs),
                  // Capture the noise position and the (possibly
                  // suspicion-scaled, possibly escalated) sigma now: the
                  // noise a submission gets reflects the session's standing
                  // when it was admitted, not when the flusher delivers it.
                  .power_ordinal =
                      power ? s.power_ordinal.fetch_add(rows, std::memory_order_relaxed) : 0,
                  .power_sigma = power ? power_sigma(s, admission) : 0.0,
                  .cache_hash = cache_hash,
                  .cache_store = cacheable && !hit,
                  .promise = std::promise<T>()};
        std::future<T> future = std::get<std::promise<T>>(unit.promise).get_future();
        if (hit) {
            if (svc.shut_down.load(std::memory_order_acquire)) {
                throw SessionClosed("the service is shut down");
            }
            resolve(*replica, unit, std::move(cached));
        } else {
            if (replica == nullptr) replica = &route(svc, s);
            enqueue(*replica, std::move(unit), flush_hint);
        }
        return future;
    } catch (...) {
        // Refused after admission began (rate, budget, shutdown): give back
        // exactly what was taken, so a refusal costs the client nothing.
        if (counted) count.fetch_sub(rows, std::memory_order_relaxed);
        if (took_budget) {
            if (power) {
                s.ledger.refund_power(rows);
            } else {
                s.ledger.refund_inference(rows);
            }
        }
        if (took_source_tokens) s.source_bucket->refund(rows);
        if (took_tokens) s.bucket->refund(rows);
        throw;
    }
}

/// Concatenates the inputs of `units[first, last)` (one kind) into one
/// backend batch. Returns a pointer into the single unit when no
/// stitching is needed, so the common scenario path (one batch unit per
/// flush) is copy-free.
const tensor::Matrix* gather_inputs(std::vector<Unit>& units, std::size_t first, std::size_t last,
                                    tensor::Matrix& storage) {
    if (last - first == 1) return &units[first].inputs;
    std::size_t rows = 0;
    for (std::size_t i = first; i < last; ++i) rows += units[i].inputs.rows();
    // resize() reuses the scratch matrix's heap capacity (values are
    // unspecified afterwards — every row is overwritten below).
    storage.resize(rows, units[first].inputs.cols());
    std::size_t at = 0;
    for (std::size_t i = first; i < last; ++i) {
        const tensor::Matrix& in = units[i].inputs;
        for (std::size_t r = 0; r < in.rows(); ++r, ++at) {
            const auto src = in.row_span(r);
            auto dst = storage.row_span(at);
            std::copy(src.begin(), src.end(), dst.begin());
        }
    }
    return &storage;
}

/// Row `at` of a backend answer, as a cache entry holds it.
ResultCache::Value answer_row(const std::vector<int>& labels, std::size_t at) {
    return {.label = labels[at]};
}
ResultCache::Value answer_row(const tensor::Matrix& Y, std::size_t at) {
    return {.raw = Y.row(at)};
}
ResultCache::Value answer_row(const tensor::Vector& p, std::size_t at) {
    return {.power = p[at]};
}

/// Answers a batch unit from rows [at, at + its rows) of a backend
/// answer, one overload per answer shape.
void resolve_batch(Unit& u, const std::vector<int>& labels, std::size_t at) {
    const auto first = labels.begin() + static_cast<std::ptrdiff_t>(at);
    std::get<std::promise<std::vector<int>>>(u.promise).set_value(
        std::vector<int>(first, first + static_cast<std::ptrdiff_t>(u.inputs.rows())));
}

void resolve_batch(Unit& u, const tensor::Matrix& Y, std::size_t at) {
    tensor::Matrix block(u.inputs.rows(), Y.cols());
    for (std::size_t r = 0; r < block.rows(); ++r) {
        const auto src = Y.row_span(at + r);
        std::copy(src.begin(), src.end(), block.row_span(r).begin());
    }
    std::get<std::promise<tensor::Matrix>>(u.promise).set_value(std::move(block));
}

void resolve_batch(Unit& u, const tensor::Vector& p, std::size_t at) {
    tensor::Vector block(u.inputs.rows(), 0.0);
    for (std::size_t r = 0; r < block.size(); ++r) block[r] = p[at + r] + power_noise(u, r);
    std::get<std::promise<tensor::Vector>>(u.promise).set_value(std::move(block));
}

/// Answers units[first, last) from one backend call's answer, in row
/// order: a scalar unit through resolve(), as a cache hit is answered.
template <typename Answer>
void deliver(const ReplicaState& replica, std::vector<Unit>& units, std::size_t first,
             std::size_t last, const Answer& answer) {
    std::size_t at = 0;
    for (std::size_t i = first; i < last; ++i) {
        Unit& u = units[i];
        if (u.scalar) {
            resolve(replica, u, answer_row(answer, at));
        } else {
            resolve_batch(u, answer, at);
        }
        at += u.inputs.rows();
    }
}

void fail_units(std::vector<Unit>& units, std::size_t first, std::size_t last,
                const std::exception_ptr& error) {
    for (std::size_t i = first; i < last; ++i) {
        std::visit([&](auto& promise) { promise.set_exception(error); }, units[i].promise);
    }
}

/// Runs one backend call for units[first, last) (already one kind) and
/// delivers results to their promises. Throws what the backend throws.
void execute_group(ReplicaState& replica, std::vector<Unit>& units, std::size_t first,
                   std::size_t last, std::size_t rows, tensor::Matrix& storage) {
    const tensor::Matrix* input = gather_inputs(units, first, last, storage);
    // Stats first: a submitter whose future resolves inside the
    // deliver call below may read them immediately.
    replica.flushed_batches.fetch_add(1, std::memory_order_relaxed);
    replica.flushed_rows.fetch_add(rows, std::memory_order_relaxed);
    switch (units[first].kind) {
        case QueryKind::Label:
            deliver(replica, units, first, last, replica.backend->query_labels(*input));
            break;
        case QueryKind::Raw:
            deliver(replica, units, first, last, replica.backend->query_raw_batch(*input));
            break;
        case QueryKind::Power:
            deliver(replica, units, first, last, replica.backend->query_power_batch(*input));
            break;
    }
}

/// Executes one drained replica queue: consecutive same-kind units are
/// merged into backend batch calls of up to max_batch rows (a single
/// unit larger than that still goes through whole — explicit batches are
/// never split, preserving the backend's all-or-nothing charging
/// and its noise-stream layout).
///
/// A backend exception (a faulting device, a contract violation) from a
/// *merged* group must not take innocent tenants' queries down with the
/// one that tripped it, so the group falls back to per-unit backend
/// calls — each unit then succeeds or fails exactly as it would have
/// under serial issue. (A backend that counts or
/// draws noise before it throws sees the group's rows once more on the
/// retry; isolation of the tenants' answers is the contract that
/// matters.)
void flush(ReplicaState& replica, std::size_t max_batch, std::vector<Unit>& units,
           tensor::Matrix& storage) {
    std::size_t first = 0;
    while (first < units.size()) {
        const QueryKind kind = units[first].kind;
        std::size_t last = first + 1;
        std::size_t rows = units[first].inputs.rows();
        while (last < units.size() && units[last].kind == kind &&
               rows + units[last].inputs.rows() <= max_batch) {
            rows += units[last].inputs.rows();
            ++last;
        }
        try {
            execute_group(replica, units, first, last, rows, storage);
        } catch (...) {
            if (last - first == 1) {
                fail_units(units, first, last, std::current_exception());
            } else {
                for (std::size_t i = first; i < last; ++i) {
                    try {
                        execute_group(replica, units, i, i + 1, units[i].inputs.rows(), storage);
                    } catch (...) {
                        fail_units(units, i, i + 1, std::current_exception());
                    }
                }
            }
        }
        replica.inflight_rows.fetch_sub(rows, std::memory_order_relaxed);
        first = last;
    }
}

void flusher_loop(const std::shared_ptr<ServiceState>& svc, ReplicaState& replica) {
#ifdef __linux__
    // The kernel may fire a sleeping thread's timer up to its timer slack
    // late (50 us by default), which would stretch every coalescing
    // window by as much; 1 us keeps the deadline precise.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
#endif
    const ServiceConfig& config = svc->config;
    std::unique_lock lock(replica.mutex);
    bool saturated = false;    ///< new work arrived while the last flush ran
    std::vector<Unit> batch;   ///< recycled: swaps capacity with the queue
    tensor::Matrix storage;    ///< recycled gather scratch (per replica, never shared)
    for (;;) {
        replica.cv.wait(lock, [&] { return replica.stopping || !replica.queue.empty(); });
        if (replica.queue.empty()) return;  // stopping, fully drained
        if (!saturated && !replica.stopping && !replica.flush_now &&
            config.max_wait.count() > 0 && replica.pending_rows < config.max_batch) {
            // Coalescing window: give concurrent submitters until max_wait
            // after the oldest pending unit arrived to pile more rows on
            // before paying for a backend call, however late this thread
            // woke. max_wait == 0 means flush-immediately and skips the
            // window outright — a zero-length timed wait would have the
            // flusher spinning through wakeups instead of batching what's
            // there.
            replica.cv.wait_until(lock, replica.first_pending + config.max_wait, [&] {
                return replica.stopping || replica.flush_now ||
                       replica.pending_rows >= config.max_batch;
            });
        }
        replica.flush_now = false;
        batch.swap(replica.queue);  // the queue inherits batch's old capacity
        replica.pending_rows = 0;
        lock.unlock();  // backend calls run without the queue lock
        flush(replica, config.max_batch, batch, storage);
        batch.clear();  // destroy units (promises already fulfilled)
        lock.lock();
        // Under streaming load the next batch formed while this one was
        // in the backend — flush it straight away instead of opening a
        // fresh latency window (the window exists to coalesce trickles,
        // not to throttle a saturated queue).
        saturated = !replica.queue.empty();
    }
}

}  // namespace
}  // namespace detail

// ---- Session ----------------------------------------------------------------

using detail::QueryKind;

Session::Session(std::shared_ptr<detail::SessionState> state) : state_(std::move(state)) {}

Session::~Session() { close(); }

Session& Session::operator=(Session&& other) noexcept {
    if (this != &other) {
        // The displaced session is closed, not leaked open on the service.
        close();
        state_ = std::move(other.state_);
    }
    return *this;
}

std::future<int> Session::submit_label(tensor::Vector u) {
    return detail::submit<int>(state_, QueryKind::Label, true,
                               tensor::Matrix::from_row(std::move(u)), false);
}

std::future<tensor::Vector> Session::submit_raw(tensor::Vector u) {
    return detail::submit<tensor::Vector>(state_, QueryKind::Raw, true,
                                          tensor::Matrix::from_row(std::move(u)), false);
}

std::future<double> Session::submit_power(tensor::Vector u) {
    return detail::submit<double>(state_, QueryKind::Power, true,
                                  tensor::Matrix::from_row(std::move(u)), false);
}

std::future<std::vector<int>> Session::submit_labels(tensor::Matrix U) {
    return detail::submit<std::vector<int>>(state_, QueryKind::Label, false, std::move(U), false);
}

std::future<tensor::Matrix> Session::submit_raw_batch(tensor::Matrix U) {
    return detail::submit<tensor::Matrix>(state_, QueryKind::Raw, false, std::move(U), false);
}

std::future<tensor::Vector> Session::submit_power_batch(tensor::Matrix U) {
    return detail::submit<tensor::Vector>(state_, QueryKind::Power, false, std::move(U), false);
}

// The synchronous Oracle calls: submit with a flush hint (the caller is
// about to block on the result), then wait.

std::size_t Session::inputs() const {
    if (state_ == nullptr) throw SessionClosed("inputs() on an empty session");
    return state_->service->inputs;
}

std::size_t Session::outputs() const {
    if (state_ == nullptr) throw SessionClosed("outputs() on an empty session");
    return state_->service->outputs;
}

int Session::query_label(const tensor::Vector& u) {
    return detail::submit<int>(state_, QueryKind::Label, true, tensor::Matrix::from_row(u), true)
        .get();
}

tensor::Vector Session::query_raw(const tensor::Vector& u) {
    return detail::submit<tensor::Vector>(state_, QueryKind::Raw, true,
                                          tensor::Matrix::from_row(u), true)
        .get();
}

double Session::query_power(const tensor::Vector& u) {
    return detail::submit<double>(state_, QueryKind::Power, true, tensor::Matrix::from_row(u),
                                  true)
        .get();
}

std::vector<int> Session::query_labels(const tensor::Matrix& U) {
    return detail::submit<std::vector<int>>(state_, QueryKind::Label, false, U, true).get();
}

tensor::Matrix Session::query_raw_batch(const tensor::Matrix& U) {
    return detail::submit<tensor::Matrix>(state_, QueryKind::Raw, false, U, true).get();
}

tensor::Vector Session::query_power_batch(const tensor::Matrix& U) {
    return detail::submit<tensor::Vector>(state_, QueryKind::Power, false, U, true).get();
}

QueryCounters Session::counters() const {
    QueryCounters c;
    if (state_ != nullptr) {
        c.inference = state_->inference_count.load(std::memory_order_relaxed);
        c.power = state_->power_count.load(std::memory_order_relaxed);
    }
    return c;
}

void Session::reset_counters() {
    if (state_ == nullptr) return;
    state_->inference_count.store(0, std::memory_order_relaxed);
    state_->power_count.store(0, std::memory_order_relaxed);
}

QueryCounters Session::budget_spent() const {
    return state_ != nullptr ? state_->ledger.spent() : QueryCounters{};
}

std::uint64_t Session::screened() const {
    return (state_ != nullptr && state_->screen != nullptr) ? state_->screen->screened() : 0;
}

std::uint64_t Session::flagged() const {
    return (state_ != nullptr && state_->screen != nullptr) ? state_->screen->flagged() : 0;
}

double Session::flagged_fraction() const {
    return (state_ != nullptr && state_->screen != nullptr) ? state_->screen->flagged_fraction()
                                                            : 0.0;
}

std::uint64_t Session::id() const { return state_ != nullptr ? state_->id : 0; }

std::size_t Session::home_replica() const {
    return state_ != nullptr ? state_->home_replica : 0;
}

bool Session::open() const {
    return state_ != nullptr && state_->open.load(std::memory_order_acquire);
}

void Session::close() {
    if (state_ == nullptr) return;
    // exchange(): exactly one closer runs the attribution close hook
    // (destructor after an explicit close() must not run it twice).
    const bool was_open = state_->open.exchange(false, std::memory_order_acq_rel);
    if (was_open && state_->service->attrib != nullptr) {
        // The sketch-similarity merge pass; per-source and campaign
        // windows survive — that is the point of the attribution layer.
        state_->service->attrib->engine.note_session_close(state_->id);
    }
    // In-flight submissions complete normally; nudge every flusher with
    // pending units so their futures resolve promptly. An idle replica is
    // left alone: a flush_now set on an empty queue would outlive this
    // close and cut the next unit's window, whatever session sent it.
    for (auto& replica : state_->service->replicas) {
        {
            std::lock_guard lock(replica->mutex);
            if (replica->queue.empty()) continue;
            replica->flush_now = true;
        }
        replica->cv.notify_all();
    }
}

// ---- OracleService ----------------------------------------------------------

OracleService::OracleService(Oracle& backend, ServiceConfig config)
    : OracleService(std::vector<Oracle*>{&backend}, config) {}

OracleService::OracleService(const std::vector<Oracle*>& replicas, ServiceConfig config)
    : state_(std::make_shared<detail::ServiceState>()) {
    // Misconfiguration throws ConfigError at construction — a max_batch
    // of 0 would deadlock every flush (no group ever fits) and a
    // negative max_wait has no meaning as a coalescing window.
    if (config.max_batch == 0) {
        throw ConfigError("ServiceConfig::max_batch must be > 0 (0 rows can never flush)");
    }
    if (config.max_wait.count() < 0) {
        throw ConfigError("ServiceConfig::max_wait must be >= 0 (0 = flush immediately)");
    }
    if (replicas.empty()) throw ConfigError("OracleService needs at least one backend replica");
    for (Oracle* backend : replicas) {
        if (backend == nullptr) throw ConfigError("OracleService replica must not be null");
    }
    const std::size_t inputs = replicas.front()->inputs();
    const std::size_t outputs = replicas.front()->outputs();
    for (Oracle* backend : replicas) {
        if (backend->inputs() != inputs || backend->outputs() != outputs) {
            throw ConfigError("OracleService replicas must share one input/output shape");
        }
    }
    state_->config = config;
    if (config.cache.enabled) {
        if (config.cache.capacity == 0) {
            throw ConfigError("CacheConfig::capacity must be > 0 when the cache is enabled");
        }
        state_->cache = std::make_unique<detail::ResultCache>(config.cache.capacity);
    }
    if (config.attribution.enabled) {
        const attrib::EngineConfig& ec = config.attribution.engine;
        if (ec.window_events == 0 || ec.sketch_k == 0 || ec.repeat_overlap == 0 ||
            ec.index_capacity == 0) {
            throw ConfigError(
                "AttributionConfig::engine window_events, sketch_k, repeat_overlap, and "
                "index_capacity must all be > 0 when attribution is enabled");
        }
        state_->attrib = std::make_unique<detail::AttribState>(config.attribution);
    }
    state_->inputs = inputs;
    state_->outputs = outputs;
    state_->replicas.reserve(replicas.size());
    for (std::size_t i = 0; i < replicas.size(); ++i) {
        auto replica = std::make_unique<detail::ReplicaState>();
        replica->backend = replicas[i];
        replica->index = i;
        state_->replicas.push_back(std::move(replica));
    }
    flushers_.reserve(replicas.size());
    for (auto& replica : state_->replicas) {
        flushers_.emplace_back(
            [state = state_, r = replica.get()] { detail::flusher_loop(state, *r); });
    }
}

OracleService::~OracleService() {
    state_->shut_down.store(true, std::memory_order_release);
    for (auto& replica : state_->replicas) {
        {
            std::lock_guard lock(replica->mutex);
            replica->stopping = true;
        }
        replica->cv.notify_all();
    }
    for (std::thread& flusher : flushers_) {
        if (flusher.joinable()) flusher.join();
    }
}

Session OracleService::open_session(SessionConfig config) {
    const std::uint64_t id = state_->next_session_id.fetch_add(1, std::memory_order_relaxed);
    return Session(std::make_shared<detail::SessionState>(state_, config, id));
}

std::size_t OracleService::inputs() const { return state_->inputs; }
std::size_t OracleService::outputs() const { return state_->outputs; }
std::size_t OracleService::replica_count() const { return state_->replicas.size(); }

QueryCounters OracleService::counters() const {
    // Each per-replica bucket is independently monotone; a plain + across
    // near-max replicas could wrap and break total()'s monotonicity, so
    // the fleet aggregate saturates instead.
    QueryCounters c;
    for (const auto& replica : state_->replicas) {
        QueryCounters r;
        r.inference = replica->inference_count.load(std::memory_order_relaxed);
        r.power = replica->power_count.load(std::memory_order_relaxed);
        c.add_saturating(r);
    }
    return c;
}

namespace {

/// Telemetry accessors take caller-supplied replica indices (bench
/// loops, dashboards); an out-of-range index is a configuration error,
/// not a programming contract, so it throws ConfigError instead of
/// indexing past the fleet vector.
void check_replica_index(std::size_t replica, std::size_t fleet) {
    if (replica >= fleet) {
        throw ConfigError("replica index " + std::to_string(replica) +
                          " is out of range for a fleet of " + std::to_string(fleet) +
                          " replica(s)");
    }
}

}  // namespace

QueryCounters OracleService::replica_counters(std::size_t replica) const {
    check_replica_index(replica, state_->replicas.size());
    QueryCounters c;
    c.inference = state_->replicas[replica]->inference_count.load(std::memory_order_relaxed);
    c.power = state_->replicas[replica]->power_count.load(std::memory_order_relaxed);
    return c;
}

void OracleService::reset_counters() {
    for (auto& replica : state_->replicas) {
        replica->inference_count.store(0, std::memory_order_relaxed);
        replica->power_count.store(0, std::memory_order_relaxed);
    }
}

std::uint64_t OracleService::flushed_batches() const {
    std::uint64_t total = 0;
    for (const auto& replica : state_->replicas) {
        total += replica->flushed_batches.load(std::memory_order_relaxed);
    }
    return total;
}

std::uint64_t OracleService::flushed_rows() const {
    std::uint64_t total = 0;
    for (const auto& replica : state_->replicas) {
        total += replica->flushed_rows.load(std::memory_order_relaxed);
    }
    return total;
}

std::uint64_t OracleService::flushed_batches(std::size_t replica) const {
    check_replica_index(replica, state_->replicas.size());
    return state_->replicas[replica]->flushed_batches.load(std::memory_order_relaxed);
}

std::uint64_t OracleService::flushed_rows(std::size_t replica) const {
    check_replica_index(replica, state_->replicas.size());
    return state_->replicas[replica]->flushed_rows.load(std::memory_order_relaxed);
}

std::size_t OracleService::queue_depth(std::size_t replica) const {
    check_replica_index(replica, state_->replicas.size());
    return state_->replicas[replica]->inflight_rows.load(std::memory_order_relaxed);
}

std::size_t OracleService::sessions_opened() const {
    return state_->next_session_id.load(std::memory_order_relaxed) - 1;
}

std::uint64_t OracleService::cache_hits() const {
    return state_->cache != nullptr ? state_->cache->hits() : 0;
}

std::uint64_t OracleService::cache_misses() const {
    return state_->cache != nullptr ? state_->cache->misses() : 0;
}

std::uint64_t OracleService::cache_evictions() const {
    return state_->cache != nullptr ? state_->cache->evictions() : 0;
}

std::size_t OracleService::cache_entries() const {
    return state_->cache != nullptr ? state_->cache->entries() : 0;
}

double OracleService::cache_hit_rate() const {
    if (state_->cache == nullptr) return 0.0;
    const std::uint64_t hits = state_->cache->hits();
    const std::uint64_t probes = QueryCounters::saturating_add(hits, state_->cache->misses());
    return probes > 0 ? static_cast<double>(hits) / static_cast<double>(probes) : 0.0;
}

bool OracleService::attribution_enabled() const { return state_->attrib != nullptr; }

bool OracleService::attribution_alert() const {
    return state_->attrib != nullptr && state_->attrib->engine.alert();
}

std::size_t OracleService::attribution_source_count() const {
    return state_->attrib != nullptr ? state_->attrib->engine.source_count() : 0;
}

std::vector<attrib::SourceId> OracleService::attribution_sources() const {
    if (state_->attrib == nullptr) return {};
    return state_->attrib->engine.sources();
}

attrib::SourceCounters OracleService::attribution_source_counters(attrib::SourceId source) const {
    // Keyed telemetry follows the per-replica convention: asking a
    // service without the subsystem (or for an unknown key) is a
    // configuration error, not a zero.
    if (state_->attrib == nullptr) {
        throw ConfigError("attribution is not enabled on this service");
    }
    return state_->attrib->engine.source_counters(source);
}

std::size_t OracleService::attribution_campaign_count() const {
    return state_->attrib != nullptr ? state_->attrib->engine.campaign_count() : 0;
}

std::vector<attrib::CampaignCounters> OracleService::attribution_campaigns() const {
    if (state_->attrib == nullptr) return {};
    return state_->attrib->engine.campaigns();
}

attrib::CampaignCounters OracleService::attribution_campaign_of(std::uint64_t session) const {
    if (state_->attrib == nullptr) {
        throw ConfigError("attribution is not enabled on this service");
    }
    return state_->attrib->engine.campaign_of(session);
}

std::string OracleService::attribution_snapshot() const {
    return state_->attrib != nullptr ? state_->attrib->engine.json_snapshot() : "{}";
}

}  // namespace xbarsec::core
