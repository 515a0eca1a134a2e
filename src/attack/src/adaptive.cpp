#include "xbarsec/attack/adaptive.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "xbarsec/common/rng.hpp"

namespace xbarsec::attack {

using core::AccessDenied;
using core::Oracle;
using core::QueryBudgetExceeded;
using core::QueryRefused;
using core::RateLimited;
using core::Session;

const char* to_string(AttackerStrategy strategy) {
    switch (strategy) {
        case AttackerStrategy::Fixed: return "fixed";
        case AttackerStrategy::Throttle: return "throttle";
        case AttackerStrategy::Rotate: return "rotate";
        case AttackerStrategy::Spread: return "spread";
        case AttackerStrategy::Forge: return "forge";
    }
    return "?";
}

AdaptiveAttacker::AdaptiveAttacker(core::OracleService& service, core::SessionConfig tenant,
                                   AdaptiveAttackerConfig config)
    : service_(&service), tenant_(std::move(tenant)), config_(config) {}

namespace {

/// Runs `fn`, absorbing RateLimited per the strategy: Fixed gives up on
/// the first refusal; the adaptive strategies back off and retry.
template <typename Fn>
auto with_rate_retry(Fn&& fn, const AdaptiveAttackerConfig& config, std::size_t& rate_hits)
    -> decltype(fn()) {
    for (std::size_t attempt = 0;; ++attempt) {
        try {
            return fn();
        } catch (const RateLimited&) {
            ++rate_hits;
            if (config.strategy == AttackerStrategy::Fixed || attempt >= config.max_retries) {
                throw;
            }
            std::this_thread::sleep_for(config.backoff);
        }
    }
}

}  // namespace

AdaptiveAttackerOutcome AdaptiveAttacker::run(const tensor::Matrix& probe_pool,
                                              const tensor::Matrix& camouflage_pool) {
    const bool forges = config_.strategy == AttackerStrategy::Forge;
    const bool rotates = config_.strategy == AttackerStrategy::Rotate ||
                         config_.strategy == AttackerStrategy::Spread || forges;
    const bool spreads = config_.strategy == AttackerStrategy::Spread || forges;

    AdaptiveAttackerOutcome out;
    Rng rng(config_.seed);
    const std::size_t outputs = service_->outputs();

    std::vector<tensor::Vector> inputs;
    std::vector<tensor::Vector> raw_rows;
    std::vector<double> powers;
    inputs.reserve(config_.planned_queries);
    raw_rows.reserve(config_.planned_queries);
    powers.reserve(config_.planned_queries);

    const auto t0 = std::chrono::steady_clock::now();
    // Forge presents a fresh admission identity from the first session
    // on — the deployment never sees the tenant's real SourceId.
    if (forges) tenant_.source = config_.forge_source_base;
    // Rotation move-assigns a fresh session into `session`, so the
    // queries below always reach the current one, however many sessions
    // the campaign spans.
    Session session = service_->open_session(tenant_);
    std::size_t since_rotation = 0;

    auto note_suspicion = [&] {
        out.max_flagged_fraction = std::max(out.max_flagged_fraction, session.flagged_fraction());
    };
    auto rotate = [&] {
        note_suspicion();
        // A forging attacker never reuses an identity: every rotation is
        // a "new customer" as far as per-source defenses can tell.
        if (forges) tenant_.source = config_.forge_source_base + out.sessions_used;
        session = service_->open_session(tenant_);
        ++out.sessions_used;
        since_rotation = 0;
    };

    for (std::size_t q = 0; q < config_.planned_queries; ++q) {
        if (rotates && since_rotation >= config_.rotate_after) rotate();
        if (spreads && session.flagged_fraction() > config_.flag_target &&
            session.screened() > 0) {
            rotate();
        }

        // Spread dilutes its high-leverage probes with clean camouflage
        // rows; every query is still a usable sample for the fit.
        const bool camo = spreads && camouflage_pool.rows() > 0 &&
                          rng.uniform() < config_.camouflage;
        const tensor::Matrix& pool = camo ? camouflage_pool : probe_pool;
        const tensor::Vector u = pool.row(static_cast<std::size_t>(rng.below(pool.rows())));

        tensor::Vector y;
        double p = 0.0;
        try {
            try {
                if (!config_.query_raw) throw AccessDenied("labels only");
                y = with_rate_retry([&] { return session.query_raw(u); }, config_, out.rate_hits);
            } catch (const AccessDenied&) {
                // Raw withheld (static exposure or an escalated adaptive
                // band) — a one-hot label is the degraded fallback.
                if (config_.query_raw) ++out.raw_denied;
                const int label =
                    with_rate_retry([&] { return session.query_label(u); }, config_, out.rate_hits);
                y = tensor::Vector(outputs, 0.0);
                y[static_cast<std::size_t>(label)] = 1.0;
            }
            p = with_rate_retry([&] { return session.query_power(u); }, config_, out.rate_hits);
        } catch (const RateLimited&) {
            ++out.refused;  // Fixed gives up; adaptive ran out of retries
            continue;
        } catch (const QueryBudgetExceeded&) {
            ++out.refused;
            continue;
        } catch (const QueryRefused&) {
            ++out.refused;  // a blocking detector rejected the input
            continue;
        } catch (const AccessDenied&) {
            ++out.refused;  // power channel withheld too — sample unusable
            continue;
        }

        inputs.push_back(u);
        raw_rows.push_back(std::move(y));
        powers.push_back(p);
        ++since_rotation;
    }
    note_suspicion();
    const auto t1 = std::chrono::steady_clock::now();

    out.collected = inputs.size();
    out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    if (!inputs.empty()) {
        out.data.inputs = tensor::Matrix::from_rows(inputs);
        out.data.outputs = tensor::Matrix::from_rows(raw_rows);
        out.data.power = tensor::Vector(powers.size(), 0.0);
        std::copy(powers.begin(), powers.end(), out.data.power.begin());
    }
    return out;
}

}  // namespace xbarsec::attack
