// Device-side defenses over the attacker-facing Oracle, and the
// per-client policy classes that OracleService sessions enforce.
//
// The one decorator, ObfuscatedOracle, models the physical device: it
// wraps an existing Oracle (by reference — it does not own the backend)
// and passes its power channel through a sidechannel::obfuscation
// transform (dither / uniform dummies / randomised dummies), in weight
// units. Obfuscation layers stack; counting happens exactly once, at the
// backend — decorators forward queries and delegate counters() inward,
// so wrapping never double-counts, no matter how deep the stack.
// DecoratorStack owns a dynamically-built chain.
//
// Per-client policy lives in sessions (SessionConfig, service.hpp), not
// in decorators: BudgetLedger (query budget), TokenBucket (rate limit),
// DetectorScreen (current-signature screening window) and AdaptivePolicy
// (suspicion-scaled escalation) are the policy state a session owns.
// Sensing noise is SessionConfig::power_noise_sigma.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "xbarsec/core/oracle.hpp"
#include "xbarsec/sidechannel/detector.hpp"
#include "xbarsec/sidechannel/obfuscation.hpp"

namespace xbarsec::core {

/// Base decorator: forwards every query to the wrapped oracle. Derived
/// classes override only the aspect they alter. Batched queries forward
/// as batches so the backend's GEMM path is preserved through the stack.
class OracleDecorator : public Oracle {
public:
    std::size_t inputs() const override { return inner_.inputs(); }
    std::size_t outputs() const override { return inner_.outputs(); }

    int query_label(const tensor::Vector& u) override { return inner_.query_label(u); }
    tensor::Vector query_raw(const tensor::Vector& u) override { return inner_.query_raw(u); }
    double query_power(const tensor::Vector& u) override { return inner_.query_power(u); }

    std::vector<int> query_labels(const tensor::Matrix& U) override {
        return inner_.query_labels(U);
    }
    tensor::Matrix query_raw_batch(const tensor::Matrix& U) override {
        return inner_.query_raw_batch(U);
    }
    tensor::Vector query_power_batch(const tensor::Matrix& U) override {
        return inner_.query_power_batch(U);
    }

    /// Counters live at the backend; delegating keeps every physical
    /// query counted exactly once regardless of stack depth.
    QueryCounters counters() const override { return inner_.counters(); }
    void reset_counters() override { inner_.reset_counters(); }

    Oracle& inner() { return inner_; }
    const Oracle& inner() const { return inner_; }

protected:
    explicit OracleDecorator(Oracle& inner) : inner_(inner) {}
    OracleDecorator(const OracleDecorator&) = delete;
    OracleDecorator& operator=(const OracleDecorator&) = delete;

private:
    Oracle& inner_;
};

// ---- power obfuscation ------------------------------------------------------

/// Which sidechannel::obfuscation transform to apply to the power channel.
struct ObfuscationConfig {
    enum class Kind {
        Dither,        ///< zero-mean Gaussian supply-rail dither
        UniformDummy,  ///< identical always-on dummy load per input line
        RandomDummy,   ///< randomised per-line dummy loads
    };

    Kind kind = Kind::Dither;

    /// Transform magnitude in weight units: dither σ, or the (maximum)
    /// dummy conductance. A natural scale is max_j ‖W[:,j]‖₁.
    double magnitude = 0.0;

    /// Seed for the dither stream / dummy draw.
    std::uint64_t seed = 0xD3F3A5Eull;
};

/// Applies a power-obfuscation counter-measure to the wrapped oracle's
/// power channel. Labels and raw outputs pass through unchanged. Batched
/// power queries are serialised through the transform so the obfuscation
/// stream is identical to per-vector measurement.
class ObfuscatedOracle : public OracleDecorator {
public:
    ObfuscatedOracle(Oracle& inner, ObfuscationConfig config);

    double query_power(const tensor::Vector& u) override;
    tensor::Vector query_power_batch(const tensor::Matrix& U) override;

    const ObfuscationConfig& config() const { return config_; }

private:
    ObfuscationConfig config_;
    sidechannel::TotalCurrentFn obfuscated_;
    std::mutex mutex_;  ///< the dither transform draws from a stateful Rng
};

// ---- query budgets ----------------------------------------------------------

/// Attacker-cost cap. 0 means unlimited for that bucket.
struct QueryBudget {
    std::uint64_t max_inference = 0;
    std::uint64_t max_power = 0;
    std::uint64_t max_total = 0;

    bool unlimited() const { return max_inference == 0 && max_power == 0 && max_total == 0; }
};

/// Thrown at session admission when a query would exceed the session's
/// budget.
class QueryBudgetExceeded : public Error {
public:
    explicit QueryBudgetExceeded(const std::string& what)
        : Error("query budget exceeded: " + what) {}
};

/// Per-client budget *policy state*: each OracleService session with a
/// budget owns one, so one shared backend enforces a different ledger per
/// tenant. Thread-safe: concurrent submitters charge atomically under one
/// mutex, and charging is all-or-nothing — a batch that would cross the
/// cap throws before any of it is charged.
class BudgetLedger {
public:
    explicit BudgetLedger(QueryBudget budget) : budget_(budget) {}

    /// Charges n inference / power queries; throws QueryBudgetExceeded
    /// (charging nothing) when the charge would cross a cap.
    void charge_inference(std::uint64_t n);
    void charge_power(std::uint64_t n);

    /// Returns previously-charged queries to the budget — admission
    /// rollback for a submission that was charged but could not be
    /// enqueued (e.g. the service shut down between the charge and the
    /// queue push).
    void refund_inference(std::uint64_t n);
    void refund_power(std::uint64_t n);

    /// Queries charged so far (this ledger's own view of the client).
    QueryCounters spent() const;

    /// Forgets everything charged; the budget caps stay in force.
    void reset();

    const QueryBudget& budget() const { return budget_; }

private:
    QueryBudget budget_;
    mutable std::mutex mutex_;
    std::uint64_t spent_inference_ = 0;
    std::uint64_t spent_power_ = 0;
};

// ---- token-bucket rate limiting ---------------------------------------------

/// Sustained-rate admission cap: `refill_per_sec` tokens accrue per
/// second up to `burst` tokens of headroom, and every admitted query row
/// spends one token. Unlike QueryBudget (a lifetime total) this caps
/// queries *per second* — the per-tenant rate limiting the multi-tenant
/// service left open.
struct RateLimit {
    /// Tokens (query rows) accrued per second; <= 0 disables the limit.
    double refill_per_sec = 0.0;

    /// Bucket capacity — the largest instantaneous burst an idle client
    /// may spend at once. <= 0 defaults to one second's refill (at least
    /// one token), so a plain `{.refill_per_sec = 100}` is well-formed.
    double burst = 0.0;

    bool unlimited() const { return refill_per_sec <= 0.0; }
};

/// Thrown by TokenBucket when an acquisition would overdraw the bucket.
class RateLimited : public Error {
public:
    explicit RateLimited(const std::string& what) : Error("rate limited: " + what) {}
};

/// Monotonic-clock token bucket enforcing a RateLimit. Acquisition is
/// all-or-nothing (like BudgetLedger charging): a request the bucket
/// cannot cover throws RateLimited and takes nothing. The bucket starts
/// full, so a fresh client gets its burst allowance immediately.
///
/// Time comes from an injectable ClockFn — a pure monotonic nanosecond
/// source — defaulting to std::chrono::steady_clock. Tests install a
/// manually-advanced clock, making admission decisions (and therefore
/// the coalesced == serial bit-identity contract under rate limiting)
/// fully deterministic. Thread-safe under one mutex.
class TokenBucket {
public:
    /// Monotonic time source: nanoseconds since an arbitrary fixed epoch.
    using ClockFn = std::chrono::nanoseconds (*)();

    /// `clock` = nullptr uses the steady system clock.
    explicit TokenBucket(RateLimit limit, ClockFn clock = nullptr);

    /// Spends n tokens, or throws RateLimited spending nothing.
    void acquire(std::uint64_t n);

    /// Non-throwing acquire: true iff the n tokens were taken.
    bool try_acquire(std::uint64_t n);

    /// Returns previously-acquired tokens — admission rollback for a
    /// submission that was rate-admitted but then refused downstream
    /// (budget, shutdown). Never fills past the burst capacity.
    void refund(std::uint64_t n);

    /// Tokens available at this instant (refilled snapshot; racy under
    /// concurrent acquirers, exact under a test clock).
    double available() const;

    const RateLimit& limit() const { return limit_; }
    double capacity() const { return capacity_; }

private:
    /// Current token count after crediting the refill since `last_`.
    double refilled(std::chrono::nanoseconds now) const;

    RateLimit limit_;
    double capacity_ = 0.0;
    ClockFn clock_;
    mutable std::mutex mutex_;
    double tokens_ = 0.0;
    std::chrono::nanoseconds last_{0};
};

// ---- suspicion-scaled defenses ----------------------------------------------

/// Suspicion-scaled defense policy: the session's own DetectorScreen
/// flagged-fraction ("suspicion") selects a band that scales the
/// session's sensing-noise sigma and can withhold raw outputs — a
/// defender that reacts to how adversarial a tenant's traffic looks
/// instead of applying one static policy to everyone.
///
/// Bands are evaluated on the submitting thread at admission, so for a
/// serial submitter the escalation sequence is deterministic and
/// independent of how its submissions coalesce. Empty bands = policy
/// off, which keeps the default admission path bit-identical to the
/// static service.
struct AdaptivePolicy {
    struct Band {
        /// The band applies while suspicion >= this threshold.
        double min_suspicion = 0.0;

        /// Multiplies SessionConfig::power_noise_sigma while the band is
        /// active (escalation bands typically use > 1).
        double sigma_multiplier = 1.0;

        /// Raw-output cutoff: when false, raw submissions are refused
        /// (AccessDenied) while the band is active; the client can still
        /// query labels.
        bool expose_raw_outputs = true;

        /// Quarantine: while the band is active, *every* submission is
        /// refused (QueryRefused) — the harshest rung, meant for the top
        /// band of an attribution-pooled policy where "suspicion" is a
        /// whole campaign's window, not one session's. Label-degraded
        /// answers still leak a model through distillation; an attributed
        /// campaign gets nothing.
        bool refuse_queries = false;
    };

    /// Sorted ascending by min_suspicion; the *last* band whose
    /// threshold the suspicion meets applies. Empty = off.
    std::vector<Band> bands;

    /// Warm-up: no band applies before this many screened queries (tiny
    /// windows make flagged_fraction jumpy — one flagged query out of
    /// two must not escalate a tenant).
    std::uint64_t min_screened = 32;

    bool enabled() const { return !bands.empty(); }

    /// The active band for a (suspicion, screened-count) pair, or
    /// nullptr when off, warming up, or below every threshold.
    const Band* band_for(double suspicion, std::uint64_t screened) const;

    /// Two-band convenience: neutral below `threshold`, then sigma ×
    /// `sigma_multiplier` with raw outputs optionally withheld.
    static AdaptivePolicy escalate_at(double threshold, double sigma_multiplier,
                                      bool withhold_raw = true);
};

// ---- detector screening -----------------------------------------------------

/// Thrown at session admission when a query is refused: a blocking
/// DetectorScreen flagged it, or (attribution only) the session's source
/// is on probation or its campaign is quarantined.
class QueryRefused : public Error {
public:
    explicit QueryRefused(const std::string& what) : Error("query refused: " + what) {}
};

/// Per-client detection *policy state* over a shared (immutable, already
/// enrolled) CurrentSignatureDetector: the screened/flagged window and
/// the blocking decision belong to one client, the enrolled profiles to
/// the deployment. OracleService sessions each own one of these, so one
/// tenant's anomalous traffic never pollutes another tenant's detection
/// statistics. Power probes are not screened — the detector models
/// DetectX-style inference-time sensing, and basis-vector probes are not
/// inferences. Thread-safe (atomic counters; the shared detector is only
/// read).
class DetectorScreen {
public:
    DetectorScreen(const sidechannel::CurrentSignatureDetector& detector, bool block_flagged)
        : detector_(&detector), block_flagged_(block_flagged) {}

    /// Scores the input; counts it (and, when blocking, throws
    /// QueryRefused) if the detector flags it. Returns whether this row
    /// was flagged (the attribution layer records per-row verdicts);
    /// the batch form returns how many of the rows were flagged. Rows are
    /// scored in place (no copy, no allocation).
    bool screen(std::span<const double> u);
    std::size_t screen_batch(const tensor::Matrix& U);

    std::uint64_t screened() const { return screened_.load(std::memory_order_relaxed); }
    std::uint64_t flagged() const { return flagged_.load(std::memory_order_relaxed); }
    double flagged_fraction() const;

    /// Clears the screening window (counters); enrolment is untouched.
    void reset();

    bool blocking() const { return block_flagged_; }
    const sidechannel::CurrentSignatureDetector& detector() const { return *detector_; }

private:
    const sidechannel::CurrentSignatureDetector* detector_;
    bool block_flagged_;
    std::atomic<std::uint64_t> screened_{0};
    std::atomic<std::uint64_t> flagged_{0};
};

// ---- owned stacks -----------------------------------------------------------

/// An owned decorator chain over a (non-owned) backend. push<D>(args...)
/// constructs D(top(), args...) and makes it the new top; top() is the
/// attacker-facing oracle. Layer addresses are stable (heap-allocated),
/// so the chain survives moves of the stack object.
class DecoratorStack {
public:
    explicit DecoratorStack(Oracle& base) : base_(&base) {}

    template <typename D, typename... Args>
    D& push(Args&&... args) {
        auto layer = std::make_unique<D>(top(), std::forward<Args>(args)...);
        D& ref = *layer;
        layers_.push_back(std::move(layer));
        return ref;
    }

    Oracle& top() { return layers_.empty() ? *base_ : *layers_.back(); }
    std::size_t depth() const { return layers_.size(); }

private:
    Oracle* base_;
    std::vector<std::unique_ptr<Oracle>> layers_;
};

}  // namespace xbarsec::core
