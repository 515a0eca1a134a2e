// tenant-mix: closed-loop benign tenants and a session-rotating attacker
// on one replica with every admission tier on.
//
// Three request-response tenants each wait for every answer before the
// next submit_label, drawing held-out clean rows by Zipf(1.0) rank, so a
// shared result cache smaller than the working set answers most of them.
// One attacker rotates same-source sessions and alternates 16-row
// submit_labels and submit_power_batch units of amplified-uniform probe
// rows. Every session runs a log-only DetectorScreen and an AdaptivePolicy;
// attribution is on. Per-row admission is most of the work here.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "harness.hpp"
#include "trace.hpp"
#include "xbarsec/attrib/engine.hpp"
#include "xbarsec/attrib/sketch.hpp"
#include "xbarsec/common/rng.hpp"
#include "xbarsec/common/timer.hpp"
#include "xbarsec/core/service.hpp"
#include "xbarsec/sidechannel/detector.hpp"

namespace perfbench {

using namespace xbarsec;

namespace {

constexpr std::size_t kBenignTenants = 3;
constexpr std::size_t kCacheCapacity = 1024;   ///< half the 2048-row working set
constexpr double kZipfSkew = 1.0;
constexpr std::size_t kProbeRows = 2048;       ///< attacker's probe pool
constexpr double kProbeAmplitude = 6.0;        ///< probe pixels in [0, 6]
constexpr std::size_t kUnitRows = 16;          ///< rows per attacker unit
constexpr std::size_t kUnitsPerSession = 32;   ///< attacker units before rotating
constexpr std::size_t kWarmupRequests = 2000;  ///< per benign tenant, in set-up
constexpr std::size_t kWarmupUnits = 8;        ///< attacker units in set-up
constexpr std::size_t kDistillRows = 1024;     ///< each tenant's first answered rows
constexpr attrib::SourceId kAttackerSource = 1;

/// One complete set-up: deployment, detector, service, sessions, warm-up.
struct Setup {
    Deployment d;
    std::unique_ptr<sidechannel::CurrentSignatureDetector> detector;
    std::unique_ptr<TimingOracle> timing;  ///< traced runs only
    std::unique_ptr<core::OracleService> service;
    core::SessionConfig tenant;
    std::vector<core::Session> benign;
    core::Session attacker;

    tensor::Matrix serving;              ///< benign working set
    tensor::Matrix probes;               ///< attacker probe pool
    std::vector<std::size_t> rank_row;   ///< Zipf rank → serving row
    std::vector<double> zipf_cdf;
    std::vector<Rng> tenant_rng;         ///< per benign tenant draw streams
    std::size_t attacker_cursor = 0;     ///< next probe row
    std::size_t attacker_units = 0;      ///< units on the current session
    double enroll_s = 0.0;
    std::uint64_t warmup_refused = 0;
};

std::size_t zipf_draw(const Setup& s, Rng& rng) {
    const auto it = std::lower_bound(s.zipf_cdf.begin(), s.zipf_cdf.end(), rng.uniform());
    const auto rank = std::min<std::size_t>(static_cast<std::size_t>(it - s.zipf_cdf.begin()),
                                            s.zipf_cdf.size() - 1);
    return s.rank_row[rank];
}

tensor::Matrix probe_unit(const Setup& s, std::size_t cursor) {
    tensor::Matrix U(kUnitRows, s.probes.cols());
    for (std::size_t r = 0; r < kUnitRows; ++r) {
        const auto src = s.probes.row_span((cursor + r) % s.probes.rows());
        std::copy(src.begin(), src.end(), U.row_span(r).begin());
    }
    return U;
}

/// Everything one timed phase (or the warm-up) observed.
struct Phase {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    LatencyLog benign;               ///< per benign request
    WindowRows answered;             ///< rows answered per window, all clients
    std::vector<double> unit_ms;     ///< per attacker unit
    std::vector<double> close_us;    ///< attacker Session::close
    std::uint64_t rows_attempted = 0;
    std::uint64_t rows_answered = 0;
    std::uint64_t units_attempted = 0;
    Refusals refused;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::vector<tensor::Matrix> distill_rows;  ///< per tenant: its first answered rows
    std::vector<std::vector<int>> distill_labels;
    TracedPhase trace;
};

/// Per-thread tallies, merged after the join.
struct ClientTally {
    LatencyLog latency;
    WindowRows answered;
    std::vector<double> unit_ms, close_us, submit_hit_us, submit_miss_us;
    std::vector<RequestMark> requests;
    std::vector<std::size_t> rows_seen;  ///< first answered rows, in order
    std::vector<int> labels_seen;
    std::uint64_t rows_attempted = 0, rows_answered = 0, units = 0;
    Refusals refused;
};

void benign_client(Setup& s, std::size_t c, const std::vector<int>& reference,
                   const std::atomic<bool>& stop, std::size_t max_requests, bool traced,
                   Result& result, ClientTally& t) {
    core::Session& session = s.benign[c];
    for (std::size_t q = 0; q < max_requests && !stop.load(std::memory_order_relaxed); ++q) {
        const std::size_t row = zipf_draw(s, s.tenant_rng[c]);
        ++t.rows_attempted;
        ++t.units;
        try {
            const std::int64_t t0 = now_ns();
            std::future<int> answer = session.submit_label(s.serving.row(row));
            const std::int64_t t1 = now_ns();
            const bool hit =
                traced && answer.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
            const int label = answer.get();
            const std::int64_t t2 = now_ns();
            t.latency.add(t2, static_cast<double>(t2 - t0) * 1e-6);
            t.answered.add(t2, 1);
            ++t.rows_answered;
            if (!reference.empty() && label != reference[row]) {
                result.check(false, "tenant-mix: benign label differs from the replica's serial "
                                    "answer for serving row " + std::to_string(row));
            }
            if (t.rows_seen.size() < kDistillRows) {
                t.rows_seen.push_back(row);
                t.labels_seen.push_back(label);
            }
            if (traced) {
                Tracer& tracer = Tracer::instance();
                const std::uint64_t req = tracer.record("client.request", t0, t2);
                tracer.record("core.submit", t0, t1, req);
                tracer.record("core.wait", t1, t2, req);
                (hit ? t.submit_hit_us : t.submit_miss_us)
                    .push_back(static_cast<double>(t1 - t0) * 1e-3);
                if (!hit) t.requests.push_back({row_key(s.serving.row_span(row)), t0, t1, t2});
            }
        } catch (...) {
            t.refused.count_current();
        }
    }
}

void attacker_client(Setup& s, const std::vector<int>& probe_reference,
                     const std::atomic<bool>& stop, std::size_t max_units, Result& result,
                     ClientTally& t) {
    Tracer& tracer = Tracer::instance();
    for (std::size_t u = 0; u < max_units && !stop.load(std::memory_order_relaxed); ++u) {
        if (s.attacker_units == kUnitsPerSession) {
            const std::int64_t t0 = now_ns();
            s.attacker.close();
            const std::int64_t t1 = now_ns();
            t.close_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
            tracer.record("attrib.close", t0, t1);
            core::SessionConfig cfg = s.tenant;
            cfg.source = kAttackerSource;
            cfg.noise_seed = s.attacker_cursor;
            s.attacker = s.service->open_session(cfg);
            s.attacker_units = 0;
        }
        const std::size_t cursor = s.attacker_cursor;
        tensor::Matrix U = probe_unit(s, cursor);
        s.attacker_cursor = (cursor + kUnitRows) % kProbeRows;
        const bool labels = (s.attacker_units++ % 2) == 0;
        t.rows_attempted += kUnitRows;
        ++t.units;
        try {
            const std::int64_t t0 = now_ns();
            if (labels) {
                auto answer = s.attacker.submit_labels(std::move(U));
                const std::int64_t t1 = now_ns();
                const std::vector<int> got = answer.get();
                const std::int64_t t2 = now_ns();
                for (std::size_t r = 0; r < got.size(); ++r) {
                    const std::size_t row = (cursor + r) % kProbeRows;
                    if (!probe_reference.empty() && got[r] != probe_reference[row]) {
                        result.check(false, "tenant-mix: attacker label differs from the "
                                            "replica's serial answer for probe row " +
                                                std::to_string(row));
                    }
                }
                t.unit_ms.push_back(static_cast<double>(t2 - t0) * 1e-6);
                const std::uint64_t req = tracer.record("client.unit_labels", t0, t2);
                tracer.record("core.submit", t0, t1, req);
                tracer.record("core.wait", t1, t2, req);
            } else {
                auto answer = s.attacker.submit_power_batch(std::move(U));
                const std::int64_t t1 = now_ns();
                const tensor::Vector got = answer.get();
                const std::int64_t t2 = now_ns();
                for (std::size_t r = 0; r < got.size(); ++r) {
                    if (!std::isfinite(got[r])) {
                        result.check(false, "tenant-mix: non-finite power reading");
                    }
                }
                t.unit_ms.push_back(static_cast<double>(t2 - t0) * 1e-6);
                const std::uint64_t req = tracer.record("client.unit_power", t0, t2);
                tracer.record("core.submit", t0, t1, req);
                tracer.record("core.wait", t1, t2, req);
            }
            t.rows_answered += kUnitRows;
            t.answered.add(now_ns(), kUnitRows);
        } catch (...) {
            t.refused.count_current();
        }
    }
}

/// Runs the four clients until `seconds` pass (or, for the warm-up, until
/// each has made its request count). Empty references skip the checks.
Phase run_phase(Setup& s, const std::vector<int>& reference,
                const std::vector<int>& probe_reference, double seconds,
                std::size_t benign_requests, std::size_t attacker_units, bool traced,
                Result& result) {
    Phase p;
    std::atomic<bool> stop{false};
    std::vector<ClientTally> tallies(kBenignTenants + 1);
    const std::uint64_t hits0 = s.service->cache_hits();
    const std::uint64_t misses0 = s.service->cache_misses();
    p.start_ns = now_ns();
    p.benign.start_ns = p.answered.start_ns = p.start_ns;
    for (ClientTally& t : tallies) t.latency.start_ns = t.answered.start_ns = p.start_ns;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kBenignTenants; ++c) {
        threads.emplace_back([&, c] {
            benign_client(s, c, reference, stop, benign_requests, traced, result, tallies[c]);
        });
    }
    threads.emplace_back([&] {
        attacker_client(s, probe_reference, stop, attacker_units, result,
                        tallies[kBenignTenants]);
    });
    if (seconds > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
        stop.store(true, std::memory_order_relaxed);
    }
    for (std::thread& t : threads) t.join();
    p.end_ns = now_ns();
    p.cache_hits = s.service->cache_hits() - hits0;
    p.cache_misses = s.service->cache_misses() - misses0;

    for (std::size_t c = 0; c < tallies.size(); ++c) {
        ClientTally& t = tallies[c];
        p.benign.append(t.latency);
        p.answered.merge(t.answered);
        p.unit_ms.insert(p.unit_ms.end(), t.unit_ms.begin(), t.unit_ms.end());
        p.close_us.insert(p.close_us.end(), t.close_us.begin(), t.close_us.end());
        p.rows_attempted += t.rows_attempted;
        p.rows_answered += t.rows_answered;
        p.units_attempted += t.units;
        p.refused.add(t.refused);
        p.trace.requests.insert(p.trace.requests.end(), t.requests.begin(), t.requests.end());
        p.trace.submit_hit_us.insert(p.trace.submit_hit_us.end(), t.submit_hit_us.begin(),
                                     t.submit_hit_us.end());
        p.trace.submit_miss_us.insert(p.trace.submit_miss_us.end(), t.submit_miss_us.begin(),
                                      t.submit_miss_us.end());
    }
    for (std::size_t c = 0; c < kBenignTenants; ++c) {
        const ClientTally& t = tallies[c];
        tensor::Matrix rows(t.rows_seen.size(), s.serving.cols());
        for (std::size_t i = 0; i < t.rows_seen.size(); ++i) {
            const auto src = s.serving.row_span(t.rows_seen[i]);
            std::copy(src.begin(), src.end(), rows.row_span(i).begin());
        }
        p.distill_rows.push_back(std::move(rows));
        p.distill_labels.push_back(t.labels_seen);
    }
    p.trace.start_ns = p.start_ns;
    p.trace.end_ns = p.end_ns;
    return p;
}

std::unique_ptr<Setup> set_up(const Options& options, bool traced) {
    auto s = std::make_unique<Setup>();
    s->d = deploy(1);

    {
        WallTimer timer;
        ScopedSpan span("sidechannel.enroll");
        s->detector = std::make_unique<sidechannel::CurrentSignatureDetector>(
            s->d.fleet.front().hardware_for_evaluation(), s->d.split.train.take(256));
        s->enroll_s = timer.seconds();
    }

    core::ServiceConfig config;
    config.cache.enabled = true;
    config.cache.capacity = kCacheCapacity;
    config.attribution.enabled = true;
    core::Oracle* backend = &s->d.fleet.front();
    if (traced) {
        s->timing = std::make_unique<TimingOracle>(*backend);
        backend = s->timing.get();
    }
    s->service = std::make_unique<core::OracleService>(std::vector<core::Oracle*>{backend}, config);

    s->tenant.detector = s->detector.get();
    s->tenant.block_flagged = false;
    s->tenant.adaptive = core::AdaptivePolicy::escalate_at(0.2, 4.0);
    s->tenant.power_noise_sigma = 0.02 * s->d.max_column_l1();

    // Benign principals open before the attacker's first session, so no
    // benign source is ever first seen while the attribution alert is hot.
    for (std::size_t c = 0; c < kBenignTenants; ++c) {
        core::SessionConfig cfg = s->tenant;
        cfg.source = 1000 + c;
        cfg.noise_seed = options.seed ^ (0xBE9ull + c);
        s->benign.push_back(s->service->open_session(cfg));
    }
    core::SessionConfig attacker = s->tenant;
    attacker.source = kAttackerSource;
    s->attacker = s->service->open_session(attacker);

    // Inputs: the Zipf rank → row map and the attacker's probes come from
    // the workload seed.
    s->serving = s->d.serving_rows();
    Rng rng(options.seed * 0x9E3779B97F4A7C15ull + 0x7E4A);
    s->rank_row.resize(s->serving.rows());
    for (std::size_t i = 0; i < s->rank_row.size(); ++i) s->rank_row[i] = i;
    rng.shuffle(s->rank_row);
    s->zipf_cdf.resize(s->serving.rows());
    double total = 0.0;
    for (std::size_t r = 0; r < s->zipf_cdf.size(); ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfSkew);
        s->zipf_cdf[r] = total;
    }
    for (double& v : s->zipf_cdf) v /= total;
    s->probes = tensor::Matrix::random_uniform(rng, kProbeRows, s->serving.cols(), 0.0,
                                               kProbeAmplitude);
    for (std::size_t c = 0; c < kBenignTenants; ++c) {
        s->tenant_rng.emplace_back(options.seed * 1000003ull + c);
    }
    s->attacker_cursor = static_cast<std::size_t>(rng.below(kProbeRows));

    // Warm-up: a fixed number of requests from every client, answers
    // unchecked (the references are computed after set-up, untimed).
    Result unused;
    s->warmup_refused =
        run_phase(*s, {}, {}, 0.0, kWarmupRequests, kWarmupUnits, false, unused).refused.total();
    return s;
}


struct Figures {
    double qps = 0.0, p50 = 0.0, p90 = 0.0;
};

Figures figures(const Phase& p) {
    Figures f;
    f.qps = windowed_rate(p.answered, p.end_ns);
    f.p50 = windowed_quantile(p.benign, 0.50);
    f.p90 = windowed_quantile(p.benign, 0.90);
    return f;
}

/// Per-row cost of the admission stages the phase's rows went through,
/// replayed on those rows outside the service.
void replay_stages(const Setup& s, const Phase& p, Result& result) {
    // The replay batch mixes benign and attacker rows in the phase's
    // proportion of rows.
    const double attacker_share =
        p.rows_answered > 0
            ? static_cast<double>(p.unit_ms.size() * kUnitRows) / static_cast<double>(p.rows_answered)
            : 0.5;
    const std::size_t total = 2048;
    const auto attacker_rows = static_cast<std::size_t>(attacker_share * total);
    tensor::Matrix rows(total, s.serving.cols());
    Rng rng(11);
    for (std::size_t r = 0; r < total; ++r) {
        const auto src = r < attacker_rows ? s.probes.row_span(r % s.probes.rows())
                                           : s.serving.row_span(zipf_draw(s, rng));
        std::copy(src.begin(), src.end(), rows.row_span(r).begin());
    }
    constexpr int kReps = 4;
    const double n = static_cast<double>(total) * kReps;

    core::DetectorScreen screen(*s.detector, false);
    WallTimer timer;
    for (int k = 0; k < kReps; ++k) (void)screen.screen_batch(rows);
    result.set("sidechannel.screen_us", timer.seconds() * 1e6 / n, "us");

    std::vector<std::uint64_t> keys(total);
    timer.reset();
    for (int k = 0; k < kReps; ++k) {
        for (std::size_t r = 0; r < total; ++r) keys[r] = attrib::hash_row(rows.row_span(r));
    }
    result.set("attrib.hash_us", timer.seconds() * 1e6 / n, "us");

    attrib::AttributionEngine engine;
    engine.note_session_open(1, 1000);
    engine.note_session_open(2, kAttackerSource);
    const attrib::EngineConfig& ec = engine.config();
    std::vector<attrib::Observation> obs(total);
    for (std::size_t r = 0; r < total; ++r) {
        obs[r].session = r < attacker_rows ? 2 : 1;
        obs[r].source = r < attacker_rows ? kAttackerSource : 1000;
        obs[r].input_hash = keys[r];
        obs[r].suspicious = attrib::AttributionEngine::suspicious_row(rows.row_span(r), ec);
        obs[r].basis_like = attrib::AttributionEngine::basis_like_row(rows.row_span(r), ec);
    }
    timer.reset();
    for (int k = 0; k < kReps; ++k) {
        for (const attrib::Observation& o : obs) engine.observe(o);
    }
    result.set("attrib.observe_us", timer.seconds() * 1e6 / n, "us");
}

}  // namespace

void run_tenant_mix(const Options& options, Result& result) {
    result.note("load_threads", "4 (3 benign tenants, 1 attacker; closed loop)");
    result.note("program_threads", "1 flusher; backend GEMMs run on the flusher");

    const std::unique_ptr<Setup> s =
        repeated_setup(options, result, [&] { return set_up(options, options.trace); });
    result.set("sidechannel.enroll_s", s->enroll_s, "s");
    result.check(s->warmup_refused == 0, "tenant-mix: refusals during warm-up");
    // Answer references: the replica's serial labels, computed untimed
    // before the phase on the default noise-free device.
    const std::vector<int> reference = reference_labels(s->d.fleet.front(), s->serving);
    const std::vector<int> probe_reference = reference_labels(s->d.fleet.front(), s->probes);

    const double untraced_s = options.trace ? options.seconds / 2.0 : options.seconds;
    const Phase phase =
        run_phase(*s, reference, probe_reference, untraced_s, SIZE_MAX, SIZE_MAX, false, result);
    const Figures f = figures(phase);
    result.attempted = phase.units_attempted;
    result.failed = phase.refused.total();
    result.set("qps", f.qps, "rows/s");
    result.set("p50_ms", f.p50, "ms");
    result.set("p90_ms", f.p90, "ms");
    result.set("ok_frac",
               static_cast<double>(phase.rows_answered) / static_cast<double>(phase.rows_attempted),
               "fraction");
    result.set("client.p99_ms", quantile(phase.benign.values(), 0.99), "ms");
    result.set("client.p999_ms", quantile(phase.benign.values(), 0.999), "ms");
    result.set("client.attacker_unit_p50_ms", quantile(phase.unit_ms, 0.5), "ms");
    result.set("client.requests", static_cast<double>(phase.benign.size()), "count");
    result.set("core.cache_hit_rate",
               static_cast<double>(phase.cache_hits) /
                   static_cast<double>(std::max<std::uint64_t>(1, phase.cache_hits + phase.cache_misses)),
               "fraction");
    result.set("core.replica_rows_ratio", 1.0, "ratio");
    result.set("attrib.close_us", median(phase.close_us), "us");
    result.set("attrib.campaigns", static_cast<double>(s->service->attribution_campaign_count()),
               "count");
    phase.refused.report(result);

    // Quality: one label-only surrogate per tenant, distilled from the
    // tenant's first answered rows; the mean over tenants.
    double fidelity = 0.0, adv_acc = 0.0;
    for (std::size_t c = 0; c < kBenignTenants; ++c) {
        const Quality q = distill_quality(s->d, s->d.fleet.front(), phase.distill_rows[c],
                                          phase.distill_labels[c], options.seed + c);
        fidelity += q.fidelity / kBenignTenants;
        adv_acc += q.adv_acc / kBenignTenants;
    }
    result.set("fidelity", fidelity, "fraction");
    result.set("adv_acc", adv_acc, "fraction");

    if (options.trace) {
        Tracer::instance().set_on(true);
        const Phase traced = run_phase(*s, reference, probe_reference, options.seconds / 2.0,
                                       SIZE_MAX, SIZE_MAX, true, result);
        Tracer::instance().set_on(false);
        const Figures ft = figures(traced);
        set_trace_overhead(result, f.qps, ft.qps, f.p50, ft.p50);
        result.set("attrib.close_us", median(traced.close_us), "us");
        replay_stages(*s, traced, result);
        trace_metrics(traced.trace, result);
        const GemmReplay g = replay_backend_gemm(
            static_cast<std::size_t>(std::lround(result.metrics["core.batch_rows_mean"].value)),
            s->serving.cols(), s->d.fleet.front().outputs());
        result.set("tensor.gemm_gflops_backend", g.gflops, "GFLOP/s");
        result.set("tensor.gemm_bytes_backend", g.bytes, "bytes");
        write_trace_report(options, result);
    }
}

}  // namespace perfbench
