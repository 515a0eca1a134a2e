// extract: the paper's power-guided extraction through one attacker
// session with per-session sensing noise, repeated campaign after
// campaign.
//
// Each campaign probes every input line's power reading into column
// 1-norms (core::probe_columns), collects label + power rows at two query
// budgets (core::collect_queries), fits the Eq. 9 surrogate at λ = 0 and
// λ > 0 for each budget (attack::train_surrogate), and crafts FGSM
// examples on each surrogate that it scores with submit_labels through
// the same session. Large batch units of power and label queries use the
// service differently from scalar traffic, and the nn/tensor training
// loop is most of a campaign.
#include <algorithm>
#include <cmath>
#include <memory>

#include "harness.hpp"
#include "trace.hpp"
#include "xbarsec/attack/fgsm.hpp"
#include "xbarsec/attack/surrogate.hpp"
#include "xbarsec/common/rng.hpp"
#include "xbarsec/core/fig5.hpp"
#include "xbarsec/core/queries.hpp"
#include "xbarsec/core/service.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace perfbench {

using namespace xbarsec;

namespace {

/// Distinct campaigns per run; campaigns after these repeat them, and a
/// repeat must reproduce its first run's quality figures bit for bit.
constexpr std::size_t kDistinctCampaigns = 3;
constexpr std::size_t kBudgets[] = {256, 1024};
constexpr double kLambdas[] = {0.0, 0.002};
constexpr double kNoiseRel = 0.02;  ///< sensing-noise sigma / max column 1-norm
/// FGSM rows per scoring submission. Short submissions keep the latency
/// quantiles below the share of requests a host preemption lands in.
constexpr std::size_t kScoreRows = 128;
/// Probe check: with one reading per line, each probed 1-norm lies within
/// this many noise sigmas of the deployed weights' 1-norm.
constexpr double kProbeSigmas = 6.0;

struct Setup {
    Deployment d;
    std::unique_ptr<TimingOracle> timing;  ///< traced runs only
    std::unique_ptr<core::OracleService> service;
    tensor::Vector truth_l1;               ///< deployed weights' column 1-norms
    tensor::Matrix eval;                   ///< held-out rows
    std::vector<int> eval_truth;           ///< their true labels
    std::vector<int> eval_victim;          ///< the victim's labels (reference)
    double sigma = 0.0;
};

std::unique_ptr<Setup> set_up(bool traced) {
    auto s = std::make_unique<Setup>();
    s->d = deploy(1);
    core::ServiceConfig config;
    core::Oracle* backend = &s->d.fleet.front();
    if (traced) {
        s->timing = std::make_unique<TimingOracle>(*backend);
        backend = s->timing.get();
    }
    s->service = std::make_unique<core::OracleService>(std::vector<core::Oracle*>{backend}, config);
    s->sigma = kNoiseRel * s->d.max_column_l1();

    // Warm-up: one small label + power collection through a session.
    core::SessionConfig cfg;
    cfg.power_noise_sigma = s->sigma;
    core::Session warm = s->service->open_session(cfg);
    core::QueryPlan plan;
    plan.count = 256;
    plan.raw_outputs = false;
    (void)core::collect_queries(warm, s->d.split.train, plan);
    warm.close();
    return s;
}

/// One campaign's timings, quality and request latencies.
struct Campaign {
    double wall_s = 0.0;
    double probe_s = 0.0, collect_s = 0.0, train_s = 0.0, fgsm_s = 0.0;
    std::vector<double> request_ms;  ///< each FGSM scoring submission
    std::vector<Quality> fits;       ///< per (budget, λ)
    std::uint64_t rows_attempted = 0;
    std::uint64_t rows_answered = 0;
    std::uint64_t requests = 0;
    Refusals refused;
    double probe_worst_sigmas = 0.0;  ///< max_j |probed − true| / sigma
};

std::uint64_t campaign_seed(std::uint64_t seed, std::size_t c) {
    return (seed + 0x9E3779B97F4A7C15ull * (c % kDistinctCampaigns + 1)) ^ 0xE7AC7ull;
}

Campaign run_campaign(Setup& s, std::uint64_t seed, bool traced, TracedPhase& tp,
                      Result& result) {
    Tracer& tracer = Tracer::instance();
    Campaign c;
    const std::int64_t t_start = now_ns();
    ScopedSpan campaign("attack.campaign");

    core::SessionConfig cfg;
    cfg.power_noise_sigma = s.sigma;
    cfg.noise_seed = seed;
    core::Session session = s.service->open_session(cfg);
    const std::size_t inputs = s.d.fleet.front().inputs();
    const std::size_t classes = s.d.fleet.front().outputs();

    try {
        {
            ScopedSpan span("sidechannel.probe", campaign.id());
            tracer.set_backend_parent(span.id());
            const std::int64_t t0 = now_ns();
            const sidechannel::ProbeResult probe = core::probe_columns(session);
            const std::int64_t t1 = now_ns();
            c.probe_s = seconds_between(t0, t1);
            c.rows_attempted += inputs;
            c.rows_answered += probe.queries;
            ++c.requests;
            for (std::size_t j = 0; j < inputs; ++j) {
                const double err = std::abs(probe.conductance_sums[j] - s.truth_l1[j]) / s.sigma;
                c.probe_worst_sigmas = std::max(c.probe_worst_sigmas, err);
            }
            result.check(c.probe_worst_sigmas <= kProbeSigmas,
                         "extract: a probed column 1-norm is more than " +
                             std::to_string(kProbeSigmas) + " sigma from the deployed weights'");
        }
        for (const std::size_t budget : kBudgets) {
            attack::QueryDataset queries;
            {
                ScopedSpan span("attack.collect", campaign.id());
                tracer.set_backend_parent(span.id());
                core::QueryPlan plan;
                plan.count = budget;
                plan.raw_outputs = false;
                plan.record_power = true;
                plan.seed = seed + budget;
                const std::int64_t t0 = now_ns();
                queries = core::collect_queries(session, s.d.split.train, plan);
                const std::int64_t t1 = now_ns();
                c.collect_s += seconds_between(t0, t1);
                c.rows_attempted += 2 * budget;
                c.rows_answered += 2 * budget;
                ++c.requests;
            }
            const double mean_sq = tensor::mean_squared_row_norm(queries.inputs, 512);
            for (std::size_t li = 0; li < std::size(kLambdas); ++li) {
                attack::SurrogateConfig sc;
                sc.power_loss_weight = kLambdas[li];
                sc.train = core::surrogate_schedule(budget, mean_sq);
                sc.train.shuffle_seed = seed + 100 * li + budget;
                sc.init_seed = seed + 7 * li + budget;
                nn::SingleLayerNet surrogate;
                {
                    ScopedSpan span("attack.train", campaign.id());
                    tracer.set_backend_parent(span.id());
                    const std::int64_t t0 = now_ns();
                    surrogate = attack::train_surrogate(queries, sc).surrogate;
                    c.train_s += seconds_between(t0, now_ns());
                }
                std::vector<int> adv_labels;
                {
                    ScopedSpan span("attack.fgsm", campaign.id());
                    tracer.set_backend_parent(span.id());
                    const std::int64_t t0 = now_ns();
                    const tensor::Matrix adv = attack::fgsm_attack_batch(
                        surrogate, s.eval, s.eval_truth, classes, kFgsmEpsilon);
                    for (std::size_t begin = 0; begin < adv.rows(); begin += kScoreRows) {
                        const std::size_t end = std::min(adv.rows(), begin + kScoreRows);
                        tensor::Matrix unit(end - begin, adv.cols());
                        std::copy(adv.data() + begin * adv.cols(), adv.data() + end * adv.cols(),
                                  unit.data());
                        std::vector<std::uint64_t> keys;
                        if (traced) {
                            for (std::size_t r = 0; r < unit.rows(); ++r) {
                                keys.push_back(row_key(unit.row_span(r)));
                            }
                        }
                        const std::int64_t t1 = now_ns();
                        auto answer = session.submit_labels(std::move(unit));
                        const std::int64_t t2 = now_ns();
                        // Backend spans answering this unit become children of its wait.
                        const std::uint64_t wait = tracer.open("core.wait", span.id());
                        if (traced) tracer.set_backend_parent(wait);
                        const std::vector<int> got = answer.get();
                        tracer.close(wait);
                        if (traced) tracer.set_backend_parent(span.id());
                        const std::int64_t t3 = now_ns();
                        adv_labels.insert(adv_labels.end(), got.begin(), got.end());
                        c.request_ms.push_back(seconds_between(t1, t3) * 1e3);
                        c.rows_attempted += end - begin;
                        c.rows_answered += got.size();
                        ++c.requests;
                        if (traced) {
                            tracer.record("core.submit", t1, t2, span.id());
                            tp.submit_miss_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
                            for (const std::uint64_t key : keys) tp.requests.push_back({key, t1, t2, t3});
                        }
                    }
                    c.fgsm_s += seconds_between(t0, now_ns());
                }
                Quality q;
                q.fidelity = label_agreement(surrogate, s.eval, s.eval_victim);
                q.adv_acc = accuracy(adv_labels, s.eval_truth);
                c.fits.push_back(q);
            }
        }
    } catch (...) {
        c.refused.count_current();
    }
    tracer.set_backend_parent(0);
    session.close();
    c.wall_s = seconds_between(t_start, now_ns());
    return c;
}

struct PhaseOut {
    std::vector<Campaign> campaigns;
    std::int64_t start_ns = 0, end_ns = 0;
    TracedPhase trace;
};

/// Runs campaigns until `seconds` pass, and at least the distinct ones.
PhaseOut run_phase(Setup& s, const Options& options, double seconds, bool traced,
                   Result& result) {
    PhaseOut out;
    out.start_ns = now_ns();
    for (std::size_t c = 0;; ++c) {
        if (c >= kDistinctCampaigns && seconds_between(out.start_ns, now_ns()) >= seconds) break;
        out.campaigns.push_back(
            run_campaign(s, campaign_seed(options.seed, c), traced, out.trace, result));
    }
    out.end_ns = now_ns();
    out.trace.start_ns = out.start_ns;
    out.trace.end_ns = out.end_ns;
    return out;
}

struct Figures {
    double campaign_s = 0.0, qps = 0.0, p50 = 0.0, p90 = 0.0;
};

Figures figures(const PhaseOut& p) {
    Figures f;
    std::vector<double> walls, p50, p90;
    for (const Campaign& c : p.campaigns) {
        walls.push_back(c.wall_s);
        p50.push_back(quantile(c.request_ms, 0.50));
        p90.push_back(quantile(c.request_ms, 0.90));
    }
    f.campaign_s = median(walls);
    f.qps = static_cast<double>(p.campaigns.front().rows_answered) / f.campaign_s;
    f.p50 = median(p50);
    f.p90 = median(p90);
    return f;
}

double median_of(const PhaseOut& p, double Campaign::*field) {
    std::vector<double> v;
    for (const Campaign& c : p.campaigns) v.push_back(c.*field);
    return median(v);
}

}  // namespace

void run_extract(const Options& options, Result& result) {
    result.note("load_threads", "1 (one attacker session, closed loop)");
    result.note("program_threads", "1 flusher; backend GEMMs run on the flusher");

    const std::unique_ptr<Setup> s =
        repeated_setup(options, result, [&] { return set_up(options.trace); });

    // References, untimed: the deployed weights' 1-norms and the victim's
    // labels on the held-out rows.
    s->truth_l1 = tensor::column_abs_sums(
        s->d.fleet.front().hardware_for_evaluation().effective_network().weights());
    s->eval = s->d.eval_rows();
    s->eval_truth = s->d.eval_labels();
    s->eval_victim = reference_labels(s->d.fleet.front(), s->eval);

    const double untraced_s = options.trace ? options.seconds / 2.0 : options.seconds;
    const PhaseOut phase = run_phase(*s, options, untraced_s, false, result);
    const Figures f = figures(phase);

    std::uint64_t attempted = 0, answered = 0, requests = 0;
    Refusals refused;
    double worst_sigmas = 0.0;
    for (const Campaign& c : phase.campaigns) {
        attempted += c.rows_attempted;
        answered += c.rows_answered;
        requests += c.requests;
        refused.add(c.refused);
        worst_sigmas = std::max(worst_sigmas, c.probe_worst_sigmas);
    }
    // Quality over the distinct campaigns; every repeat must match exactly.
    double fidelity = 0.0, adv_acc = 0.0;
    std::size_t fits = 0;
    for (std::size_t c = 0; c < phase.campaigns.size(); ++c) {
        const Campaign& first = phase.campaigns[c % kDistinctCampaigns];
        const Campaign& run = phase.campaigns[c];
        bool same = run.fits.size() == first.fits.size();
        for (std::size_t k = 0; same && k < run.fits.size(); ++k) {
            same = run.fits[k].fidelity == first.fits[k].fidelity &&
                   run.fits[k].adv_acc == first.fits[k].adv_acc;
        }
        result.check(same, "extract: campaign " + std::to_string(c) +
                               " did not reproduce the quality of its seed's first run");
        if (c >= kDistinctCampaigns) continue;
        for (const Quality& q : run.fits) {
            fidelity += q.fidelity;
            adv_acc += q.adv_acc;
            ++fits;
        }
    }
    result.attempted = requests + refused.total();
    result.failed = refused.total();
    result.set("qps", f.qps, "rows/s");
    result.set("p50_ms", f.p50, "ms");
    result.set("p90_ms", f.p90, "ms");
    result.set("ok_frac", static_cast<double>(answered) / static_cast<double>(attempted),
               "fraction");
    result.set("fidelity", fits > 0 ? fidelity / static_cast<double>(fits) : 0.0, "fraction");
    result.set("adv_acc", fits > 0 ? adv_acc / static_cast<double>(fits) : 0.0, "fraction");
    std::vector<double> request_ms;
    for (const Campaign& c : phase.campaigns) {
        request_ms.insert(request_ms.end(), c.request_ms.begin(), c.request_ms.end());
    }
    result.set("client.p99_ms", quantile(request_ms, 0.99), "ms");
    result.set("client.p999_ms", quantile(request_ms, 0.999), "ms");
    result.set("client.requests", static_cast<double>(request_ms.size()), "count");
    result.set("attack.campaign_s", f.campaign_s, "s");
    std::string walls;
    for (const Campaign& c : phase.campaigns) {
        if (!walls.empty()) walls += ' ';
        walls += std::to_string(c.wall_s);
    }
    result.note("campaign_walls_s", walls);
    std::string fit_notes;
    const Campaign& first = phase.campaigns.front();
    for (std::size_t k = 0; k < first.fits.size(); ++k) {
        if (!fit_notes.empty()) fit_notes += "; ";
        fit_notes += "Q=" + std::to_string(kBudgets[k / std::size(kLambdas)]) +
                     " lambda=" + std::to_string(kLambdas[k % std::size(kLambdas)]) +
                     " fidelity=" + std::to_string(first.fits[k].fidelity) +
                     " adv_acc=" + std::to_string(first.fits[k].adv_acc);
    }
    result.note("first_campaign_fits", fit_notes);
    result.set("attack.campaigns", static_cast<double>(phase.campaigns.size()), "count");
    result.set("sidechannel.probe_worst_sigmas", worst_sigmas, "sigma");
    refused.report(result);

    if (options.trace) {
        Tracer::instance().set_on(true);
        const PhaseOut traced = run_phase(*s, options, options.seconds / 2.0, true, result);
        Tracer::instance().set_on(false);
        const Figures ft = figures(traced);
        set_trace_overhead(result, f.qps, ft.qps, f.p50, ft.p50);
        result.set("sidechannel.probe_s", median_of(traced, &Campaign::probe_s), "s");
        result.set("attack.collect_s", median_of(traced, &Campaign::collect_s), "s");
        result.set("attack.train_s", median_of(traced, &Campaign::train_s), "s");
        result.set("attack.fgsm_s", median_of(traced, &Campaign::fgsm_s), "s");
        trace_metrics(traced.trace, result);
        const std::size_t inputs = s->d.fleet.front().inputs();
        const std::size_t outputs = s->d.fleet.front().outputs();
        const GemmReplay backend = replay_backend_gemm(
            static_cast<std::size_t>(std::lround(result.metrics["core.batch_rows_mean"].value)),
            inputs, outputs);
        result.set("tensor.gemm_gflops_backend", backend.gflops, "GFLOP/s");
        result.set("tensor.gemm_bytes_backend", backend.bytes, "bytes");
        const GemmReplay train = replay_train_gemm(inputs, outputs);
        result.set("tensor.gemm_gflops_train", train.gflops, "GFLOP/s");
        result.set("tensor.gemm_bytes_train", train.bytes, "bytes");
        write_trace_report(options, result);
    }
}

}  // namespace perfbench
