#include "xbarsec/core/policy.hpp"

#include <algorithm>
#include <string>

namespace xbarsec::core {

// ---- BudgetLedger -----------------------------------------------------------

void BudgetLedger::charge_inference(std::uint64_t n) {
    std::lock_guard lock(mutex_);
    if (budget_.max_inference != 0 && spent_inference_ + n > budget_.max_inference) {
        throw QueryBudgetExceeded("inference budget of " + std::to_string(budget_.max_inference) +
                                  " queries is exhausted");
    }
    if (budget_.max_total != 0 && spent_inference_ + spent_power_ + n > budget_.max_total) {
        throw QueryBudgetExceeded("total budget of " + std::to_string(budget_.max_total) +
                                  " queries is exhausted");
    }
    spent_inference_ += n;
}

void BudgetLedger::charge_power(std::uint64_t n) {
    std::lock_guard lock(mutex_);
    if (budget_.max_power != 0 && spent_power_ + n > budget_.max_power) {
        throw QueryBudgetExceeded("power budget of " + std::to_string(budget_.max_power) +
                                  " measurements is exhausted");
    }
    if (budget_.max_total != 0 && spent_inference_ + spent_power_ + n > budget_.max_total) {
        throw QueryBudgetExceeded("total budget of " + std::to_string(budget_.max_total) +
                                  " queries is exhausted");
    }
    spent_power_ += n;
}

void BudgetLedger::refund_inference(std::uint64_t n) {
    std::lock_guard lock(mutex_);
    spent_inference_ -= std::min(n, spent_inference_);
}

void BudgetLedger::refund_power(std::uint64_t n) {
    std::lock_guard lock(mutex_);
    spent_power_ -= std::min(n, spent_power_);
}

QueryCounters BudgetLedger::spent() const {
    std::lock_guard lock(mutex_);
    QueryCounters c;
    c.inference = spent_inference_;
    c.power = spent_power_;
    return c;
}

// ---- TokenBucket ------------------------------------------------------------

namespace {

std::chrono::nanoseconds steady_now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now().time_since_epoch());
}

/// Floating refill accumulation can land a hair under an integer token
/// count; admit within this slack so "advance exactly 1s at 100/s, take
/// 100" behaves as written under a test clock.
constexpr double kTokenEpsilon = 1e-9;

}  // namespace

TokenBucket::TokenBucket(RateLimit limit, ClockFn clock)
    : limit_(limit), clock_(clock != nullptr ? clock : &steady_now) {
    XS_EXPECTS(!limit.unlimited());
    capacity_ = limit.burst > 0.0 ? limit.burst : std::max(limit.refill_per_sec, 1.0);
    tokens_ = capacity_;  // a fresh client starts with its burst allowance
    last_ = clock_();
}

double TokenBucket::refilled(std::chrono::nanoseconds now) const {
    if (now <= last_) return tokens_;  // monotonic clock; tolerate ties
    const double elapsed_s = static_cast<double>((now - last_).count()) * 1e-9;
    return std::min(capacity_, tokens_ + elapsed_s * limit_.refill_per_sec);
}

bool TokenBucket::try_acquire(std::uint64_t n) {
    const double need = static_cast<double>(n);
    std::lock_guard lock(mutex_);
    const std::chrono::nanoseconds now = clock_();
    const double have = refilled(now);
    tokens_ = have;
    if (now > last_) last_ = now;
    if (have + kTokenEpsilon < need) return false;
    tokens_ = have - need;
    return true;
}

void TokenBucket::acquire(std::uint64_t n) {
    if (try_acquire(n)) return;
    throw RateLimited(std::to_string(n) + " row(s) exceed the per-session rate of " +
                      std::to_string(limit_.refill_per_sec) + "/s (burst " +
                      std::to_string(capacity_) + ")");
}

void TokenBucket::refund(std::uint64_t n) {
    std::lock_guard lock(mutex_);
    tokens_ = std::min(capacity_, tokens_ + static_cast<double>(n));
}

double TokenBucket::available() const {
    std::lock_guard lock(mutex_);
    return refilled(clock_());
}

// ---- AdaptivePolicy ---------------------------------------------------------

const AdaptivePolicy::Band* AdaptivePolicy::band_for(double suspicion,
                                                     std::uint64_t screened) const {
    // `screened == 0` is checked on its own: a policy configured with
    // min_screened = 0 must still not pick a band off an empty window
    // (flagged_fraction is 0/0 there, and the first screened query would
    // otherwise admit under whatever band suspicion 0.0 selects).
    if (bands.empty() || screened == 0 || screened < min_screened) return nullptr;
    const Band* active = nullptr;
    for (const Band& band : bands) {
        if (suspicion >= band.min_suspicion) active = &band;
    }
    return active;
}

AdaptivePolicy AdaptivePolicy::escalate_at(double threshold, double sigma_multiplier,
                                           bool withhold_raw) {
    AdaptivePolicy policy;
    Band escalated;
    escalated.min_suspicion = threshold;
    escalated.sigma_multiplier = sigma_multiplier;
    escalated.expose_raw_outputs = !withhold_raw;
    policy.bands.push_back(escalated);
    return policy;
}

// ---- DetectorScreen ---------------------------------------------------------

double DetectorScreen::flagged_fraction() const {
    // Two atomics are read without a common lock; screen() bumps
    // screened_ before flagged_, so reading flagged_ *first* can never
    // observe a flag whose screened increment it misses (fraction > 1).
    // The clamp keeps the value a fraction even if a future writer
    // reorders the increments.
    const std::uint64_t f = flagged_.load(std::memory_order_seq_cst);
    const std::uint64_t n = screened_.load(std::memory_order_seq_cst);
    return n == 0 ? 0.0 : static_cast<double>(std::min(f, n)) / static_cast<double>(n);
}

bool DetectorScreen::screen(std::span<const double> u) {
    screened_.fetch_add(1, std::memory_order_seq_cst);
    if (detector_->is_adversarial(u)) {
        flagged_.fetch_add(1, std::memory_order_seq_cst);
        if (block_flagged_) {
            throw QueryRefused("input flagged by the current-signature detector");
        }
        return true;
    }
    return false;
}

std::size_t DetectorScreen::screen_batch(const tensor::Matrix& U) {
    std::size_t flagged = 0;
    for (std::size_t r = 0; r < U.rows(); ++r) {
        if (screen(U.row_span(r))) ++flagged;
    }
    return flagged;
}

}  // namespace xbarsec::core
