// The attacker-facing query interface (the paper's threat model).
//
// Attack code never touches the victim's weights: it sees only an
// `Oracle`, which exposes (depending on the scenario being modelled)
//   * classification labels        (always — the deployed model's output)
//   * raw output vectors           (Figure 5 rows 2/4)
//   * power readings               (the side channel, Eq. 5)
// and counts every query so experiments can report attacker cost.
//
// Two classes implement it:
//   * `CrossbarOracle`  — the paper's hardware model (batched internally
//     through the crossbar's GEMM fast path), including the device's
//     power-obfuscation countermeasures (ObfuscationConfig);
//   * `Session` (service.hpp) — a client's handle onto an OracleService,
//     which applies that client's budget, detector screen, sensing noise
//     and exposure options at admission.
//
// Every query kind has a batched variant (`query_labels`,
// `query_raw_batch`, `query_power_batch`); the crossbar routes these
// through dense linear algebra and an optional common::ThreadPool instead
// of per-vector loops, which is what makes heavy-traffic experiments
// viable.
//
// Power readings are normalised to weight units (i_total / weight_scale
// for a 1 V read), which models an attacker who knows the device family's
// conductance scale — the paper's implicit assumption.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "xbarsec/common/error.hpp"
#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/sidechannel/probe.hpp"
#include "xbarsec/xbar/xbar_network.hpp"

namespace xbarsec::core {

/// Thrown by a session whose policy withholds the query kind asked for
/// (SessionConfig's exposure options, an AdaptivePolicy band).
class AccessDenied : public Error {
public:
    explicit AccessDenied(const std::string& what) : Error("oracle access denied: " + what) {}
};

/// Query counters (attacker cost accounting). A snapshot — the live
/// counters inside a CrossbarOracle (or an OracleService session) are
/// atomic, so batched queries may be issued from thread-pool workers and
/// snapshots taken concurrently are always monotone per bucket between
/// resets.
struct QueryCounters {
    std::uint64_t inference = 0;  ///< label or raw-output queries
    std::uint64_t power = 0;      ///< total-current measurements

    /// Saturating sum: the buckets are independently monotone and on a
    /// long-lived multi-tenant service their sum could in principle
    /// exceed 2^64 − 1; saturation keeps total() monotone instead of
    /// wrapping.
    std::uint64_t total() const { return saturating_add(inference, power); }

    /// a + b clamped to 2^64 − 1 instead of wrapping.
    static std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
        const std::uint64_t t = a + b;
        return t < a ? ~std::uint64_t{0} : t;
    }

    /// Accumulates another snapshot bucket-wise with saturation. Fleet
    /// aggregates (sums of per-replica counters) must use this: each
    /// replica bucket saturates independently, so a plain + across
    /// near-max replicas could wrap and break total()'s monotonicity.
    void add_saturating(const QueryCounters& other) {
        inference = saturating_add(inference, other.inference);
        power = saturating_add(power, other.power);
    }
};

/// Abstract attacker-facing query interface. Attack and side-channel code
/// takes `Oracle&` and never a concrete backend; experiment code builds
/// the CrossbarOracle (with any power obfuscation set on it), serves it
/// through an OracleService and hands the attacker a Session.
class Oracle {
public:
    virtual ~Oracle() = default;

    virtual std::size_t inputs() const = 0;
    virtual std::size_t outputs() const = 0;

    /// Predicted class label for input u.
    virtual int query_label(const tensor::Vector& u) = 0;

    /// Raw post-activation output vector. A session throws AccessDenied
    /// when its policy withholds raw outputs.
    virtual tensor::Vector query_raw(const tensor::Vector& u) = 0;

    /// Power side channel in weight units: i_total(u) / weight_scale. A
    /// session throws AccessDenied when its policy withholds power.
    virtual double query_power(const tensor::Vector& u) = 0;

    /// Batched queries: one result per row of U, counted per row. The
    /// defaults loop over the scalar queries; CrossbarOracle overrides
    /// them with GEMM-path implementations.
    virtual std::vector<int> query_labels(const tensor::Matrix& U);
    virtual tensor::Matrix query_raw_batch(const tensor::Matrix& U);
    virtual tensor::Vector query_power_batch(const tensor::Matrix& U);

    /// Attacker cost so far: each physical query is counted once, at the
    /// CrossbarOracle that answered it (a session keeps its own count).
    virtual QueryCounters counters() const = 0;
    virtual void reset_counters() = 0;

    /// Adapter for sidechannel::probe_columns; still counted (the lambda
    /// routes through this oracle's query_power). Weight units.
    sidechannel::TotalCurrentFn power_measure_fn();
};

/// A power-side-channel countermeasure built into the device (a
/// defensive extension). Each adds a term to every Eq. 5 supply-current
/// reading the attacker takes, so its effect on probe quality is directly
/// measurable (bench_nonideal):
///   * current dithering — a noise source on the supply rail adds
///     zero-mean randomness to every measurement, forcing the attacker to
///     average many repeats;
///   * uniform dummy load — identical always-on dummy devices on every
///     input line shift each column estimate by the same constant. This
///     biases magnitudes but provably preserves the 1-norm *ranking* the
///     Figure-4 attacks consume (property-tested) — i.e. it is NOT an
///     effective defense, a useful negative result;
///   * random dummy load — per-line dummy devices with randomised
///     conductances corrupt each column estimate by a different unknown
///     offset, degrading rank recovery in proportion to the dummy spread.
struct ObfuscationConfig {
    enum class Kind {
        Dither,        ///< zero-mean Gaussian supply-rail dither
        UniformDummy,  ///< identical always-on dummy load per input line
        RandomDummy,   ///< randomised per-line dummy loads
    };

    Kind kind = Kind::Dither;

    /// Magnitude in weight units: the dither σ, or the (maximum) dummy
    /// conductance. A natural scale is max_j ‖W[:,j]‖₁.
    double magnitude = 0.0;

    /// Seed of the dither stream / the random dummy draw.
    std::uint64_t seed = 0xD3F3A5Eull;
};

/// Black-box wrapper over a crossbar-deployed network (the paper's
/// deployment model). Owns the atomic attacker-cost counters, so batched
/// queries may run on pool workers and several flushers may share it.
class CrossbarOracle : public Oracle {
public:
    /// Takes ownership of the deployed hardware model.
    explicit CrossbarOracle(xbar::CrossbarNetwork hardware);
    CrossbarOracle(CrossbarOracle&& other) noexcept;
    CrossbarOracle& operator=(CrossbarOracle&& other) noexcept;
    CrossbarOracle(const CrossbarOracle&) = delete;
    CrossbarOracle& operator=(const CrossbarOracle&) = delete;

    std::size_t inputs() const override { return hardware_.inputs(); }
    std::size_t outputs() const override { return hardware_.outputs(); }

    int query_label(const tensor::Vector& u) override;
    tensor::Vector query_raw(const tensor::Vector& u) override;
    double query_power(const tensor::Vector& u) override;

    std::vector<int> query_labels(const tensor::Matrix& U) override;
    tensor::Matrix query_raw_batch(const tensor::Matrix& U) override;
    tensor::Vector query_power_batch(const tensor::Matrix& U) override;

    QueryCounters counters() const override;
    void reset_counters() override;

    /// Pool used by the batched query paths (nullptr = run serially).
    void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

    /// Power obfuscation: every power reading gets each layer's term,
    /// added in list order (dither: magnitude·N(0,1) drawn at
    /// (seed, k) for the oracle's k-th reading; uniform dummies:
    /// magnitude·Σ_j u_j; random dummies: Σ_j g_j·u_j with g drawn
    /// uniformly from [0, magnitude] under seed). The reading ordinal k
    /// is never reset and a batch reserves its rows' ordinals at once,
    /// so batched and scalar reads consume one stream, from any number of
    /// threads, without a lock. Labels and raw outputs are unaffected.
    /// Set before serving, like the thread pool; an empty list reads
    /// clean.
    void set_power_obfuscation(std::vector<ObfuscationConfig> layers);

    /// The underlying hardware — for experiment *evaluation* only (e.g.
    /// scoring adversarial examples); attack code must not call this.
    const xbar::CrossbarNetwork& hardware_for_evaluation() const { return hardware_; }

private:
    struct PowerLayer {
        ObfuscationConfig config;
        tensor::Vector g_line;  ///< RandomDummy's per-line loads
    };

    /// A clean reading plus every layer's term, at reading ordinal k.
    double obfuscate(double clean, const tensor::Vector& u, std::uint64_t k) const;

    xbar::CrossbarNetwork hardware_;
    double weight_scale_ = 1.0;
    ThreadPool* pool_ = nullptr;
    std::vector<PowerLayer> layers_;
    std::atomic<std::uint64_t> inference_count_{0};
    std::atomic<std::uint64_t> power_count_{0};
    std::atomic<std::uint64_t> power_readings_{0};  ///< dither ordinal, never reset
};

}  // namespace xbarsec::core
