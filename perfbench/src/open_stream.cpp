// open-stream: an open-loop Poisson stream of never-repeated rows at a
// fixed offered rate into a plain 2-replica round-robin fleet.
//
// One generator thread sends submit_label at each request's due time,
// whether or not earlier answers came back; one collector per replica
// lane takes the answers in order (each replica answers its units in
// arrival order, so no collector waits behind another replica's batch).
// Latency runs from the due time, so a stall in the generator or the
// service counts against every request it delayed. Admission is trivial
// here: latency is set by the coalescing window, flusher wake-ups,
// routing and small backend batches.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "harness.hpp"
#include "trace.hpp"
#include "xbarsec/common/rng.hpp"
#include "xbarsec/core/service.hpp"

namespace perfbench {

using namespace xbarsec;

namespace {

constexpr double kOfferedRate = 50'000.0;  ///< rows/s
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kWarmupRequests = 20'000;
constexpr std::size_t kWarmupDepth = 64;
constexpr double kBump = 0.05;              ///< added to one pixel: makes every row unique
constexpr std::size_t kDistillRows = 1024;  ///< first answered rows of the phase

struct Setup {
    Deployment d;
    std::vector<std::unique_ptr<TimingOracle>> timing;  ///< traced runs only
    std::unique_ptr<core::OracleService> service;
    core::Session session;
    tensor::Matrix serving;
    std::uint64_t submitted = 0;  ///< units routed so far (the round-robin cursor)
    std::uint64_t row_offset = 0;
    std::uint64_t pixel_offset = 0;
};

/// Request g's row: serving row (g + offset) mod P with one pixel raised
/// by kBump · (1 + g / (P · inputs)). The (row, pixel, bump) triple is
/// distinct for every g, so no row repeats.
tensor::Vector make_row(const Setup& s, std::uint64_t g) {
    const std::size_t rows = s.serving.rows(), cols = s.serving.cols();
    tensor::Vector u = s.serving.row(static_cast<std::size_t>((g + s.row_offset) % rows));
    const std::uint64_t lap = g / (rows * cols);
    u[static_cast<std::size_t>((g / rows + s.pixel_offset) % cols)] +=
        kBump * static_cast<double>(1 + lap);
    return u;
}

std::unique_ptr<Setup> set_up(const Options& options, bool traced) {
    auto s = std::make_unique<Setup>();
    s->d = deploy(kReplicas);
    core::ServiceConfig config;
    config.routing = core::RoutingPolicy::RoundRobin;
    std::vector<core::Oracle*> backends;
    for (core::CrossbarOracle& replica : s->d.fleet) {
        if (traced) {
            s->timing.push_back(std::make_unique<TimingOracle>(replica));
            backends.push_back(s->timing.back().get());
        } else {
            backends.push_back(&replica);
        }
    }
    s->service = std::make_unique<core::OracleService>(backends, config);
    s->session = s->service->open_session();
    s->serving = s->d.serving_rows();
    Rng rng(options.seed * 0x2545F4914F6CDD1Dull + 0x0F5);
    s->row_offset = rng.below(s->serving.rows());
    s->pixel_offset = rng.below(s->serving.cols());

    // Warm-up: a fixed pipelined burst through the fleet.
    std::vector<std::future<int>> window;
    for (std::size_t i = 0; i < kWarmupRequests; ++i) {
        window.push_back(s->session.submit_label(make_row(*s, s->submitted++)));
        if (window.size() == kWarmupDepth) {
            for (auto& f : window) (void)f.get();
            window.clear();
        }
    }
    for (auto& f : window) (void)f.get();
    return s;
}

struct Phase {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t first = 0;  ///< global index of the phase's first request
    std::vector<std::int64_t> due, sent, submitted, done;
    std::vector<int> labels;
    std::vector<char> ok;
    std::vector<std::uint64_t> keys;  ///< traced runs only
    Refusals refused;
    std::vector<std::uint64_t> replica_rows;
    std::size_t answered = 0;
};

/// Poisson arrival offsets (ns from the phase start) over `seconds`.
std::vector<std::int64_t> schedule(std::uint64_t seed, double seconds) {
    Rng rng(seed);
    std::vector<std::int64_t> out;
    out.reserve(static_cast<std::size_t>(kOfferedRate * seconds * 1.05) + 16);
    double t = 0.0;
    while (true) {
        t += -std::log(1.0 - rng.uniform()) / kOfferedRate;
        if (t >= seconds) break;
        out.push_back(static_cast<std::int64_t>(t * 1e9));
    }
    return out;
}

Phase run_phase(Setup& s, const std::vector<std::int64_t>& offsets,
                const std::vector<int>& reference, bool traced, Result& result) {
    const std::size_t n = offsets.size();
    Phase p;
    p.first = s.submitted;
    p.due.resize(n);
    p.sent.resize(n);
    p.submitted.resize(n);
    p.done.assign(n, 0);
    p.labels.assign(n, -1);
    p.ok.assign(n, 0);
    if (traced) p.keys.resize(n);
    std::vector<std::future<int>> futures(n);
    std::atomic<std::size_t> published{0};
    std::vector<std::uint64_t> rows0(kReplicas);
    for (std::size_t r = 0; r < kReplicas; ++r) rows0[r] = s.service->flushed_rows(r);

    p.start_ns = now_ns() + 2'000'000;  // 2 ms for the threads to start
    std::vector<std::thread> collectors;
    std::vector<Refusals> lane_refusals(kReplicas);
    Refusals generator_refusals;
    for (std::size_t lane = 0; lane < kReplicas; ++lane) {
        collectors.emplace_back([&, lane] {
            // Requests routed to replica `lane`: global index ≡ lane (mod N).
            std::size_t i = (lane + kReplicas - p.first % kReplicas) % kReplicas;
            for (; i < n; i += kReplicas) {
                std::size_t seen = published.load(std::memory_order_acquire);
                while (seen <= i) {
                    published.wait(seen, std::memory_order_acquire);
                    seen = published.load(std::memory_order_acquire);
                }
                if (!futures[i].valid()) continue;  // refused at submission
                try {
                    p.labels[i] = futures[i].get();
                    p.done[i] = now_ns();
                    p.ok[i] = 1;
                } catch (...) {
                    lane_refusals[lane].count_current();
                }
            }
        });
    }
    std::thread generator([&] {
        // The generator is the one thread that spins (below the core count):
        // it sleeps only when the next due time is over 1 ms away and spins
        // to the due time otherwise. A sleeping generator waits out vCPU
        // wake-ups, which on a busy host made it run milliseconds late.
        prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
        for (std::size_t i = 0; i < n; ++i) {
            const std::int64_t due = p.start_ns + offsets[i];
            p.due[i] = due;
            if (due - now_ns() > 1'000'000) {
                std::this_thread::sleep_until(
                    Clock::time_point(std::chrono::nanoseconds(due - 500'000)));
            }
            while (now_ns() < due) {
            }
            tensor::Vector u = make_row(s, p.first + i);
            if (traced) p.keys[i] = row_key({u.data(), u.size()});
            p.sent[i] = now_ns();
            try {
                futures[i] = s.session.submit_label(std::move(u));
            } catch (...) {
                generator_refusals.count_current();
            }
            p.submitted[i] = now_ns();
            published.store(i + 1, std::memory_order_release);
            published.notify_all();
        }
    });
    generator.join();
    for (std::thread& t : collectors) t.join();
    s.submitted += n;
    p.end_ns = p.start_ns;
    for (std::size_t i = 0; i < n; ++i) {
        if (!p.ok[i]) continue;
        ++p.answered;
        p.end_ns = std::max(p.end_ns, p.done[i]);
        if (p.labels[i] != reference[i]) {
            result.check(false, "open-stream: label differs from the answering replica's serial "
                                "answer for request " + std::to_string(p.first + i));
        }
    }
    p.refused = generator_refusals;
    for (const Refusals& r : lane_refusals) p.refused.add(r);
    for (std::size_t r = 0; r < kReplicas; ++r) {
        p.replica_rows.push_back(s.service->flushed_rows(r) - rows0[r]);
    }
    return p;
}

/// The serial answers of the replica each request will be routed to.
std::vector<int> phase_reference(Setup& s, std::size_t n) {
    std::vector<int> out(n);
    for (std::size_t lane = 0; lane < kReplicas; ++lane) {
        std::vector<std::size_t> idx;
        for (std::size_t i = 0; i < n; ++i) {
            if ((s.submitted + i) % kReplicas == lane) idx.push_back(i);
        }
        constexpr std::size_t kChunk = 4096;
        for (std::size_t b = 0; b < idx.size(); b += kChunk) {
            const std::size_t e = std::min(idx.size(), b + kChunk);
            tensor::Matrix U(e - b, s.serving.cols());
            for (std::size_t k = b; k < e; ++k) {
                const tensor::Vector u = make_row(s, s.submitted + idx[k]);
                std::copy(u.begin(), u.end(), U.row_span(k - b).begin());
            }
            const std::vector<int> labels = s.d.fleet[lane].query_labels(U);
            for (std::size_t k = b; k < e; ++k) out[idx[k]] = labels[k - b];
        }
    }
    return out;
}

struct Figures {
    double qps = 0.0, p50 = 0.0, p90 = 0.0;
    LatencyLog log;
};

Figures figures(const Phase& p) {
    Figures f;
    f.log.start_ns = p.start_ns;
    f.log.done_us.reserve(p.due.size());
    f.log.latency_ms.reserve(p.due.size());
    for (std::size_t i = 0; i < p.due.size(); ++i) {
        if (p.ok[i]) f.log.add(p.done[i], static_cast<double>(p.done[i] - p.due[i]) * 1e-6);
    }
    f.qps = static_cast<double>(p.answered) / seconds_between(p.start_ns, p.end_ns);
    f.p50 = windowed_quantile(f.log, 0.50);
    f.p90 = windowed_quantile(f.log, 0.90);
    return f;
}

}  // namespace

void run_open_stream(const Options& options, Result& result) {
    result.note("load_threads", "3 (1 generator at " +
                                    std::to_string(static_cast<long long>(kOfferedRate)) +
                                    " rows/s Poisson, 1 collector per replica; open loop)");
    result.note("program_threads", "2 flushers; backend GEMMs run on the flushers");

    const std::unique_ptr<Setup> s =
        repeated_setup(options, result, [&] { return set_up(options, options.trace); });

    const double untraced_s = options.trace ? options.seconds / 2.0 : options.seconds;
    const std::vector<std::int64_t> offsets = schedule(options.seed, untraced_s);
    const std::vector<int> reference = phase_reference(*s, offsets.size());
    const Phase phase = run_phase(*s, offsets, reference, false, result);
    const Figures f = figures(phase);

    result.attempted = offsets.size();
    result.failed = offsets.size() - phase.answered;
    result.set("qps", f.qps, "rows/s");
    result.set("p50_ms", f.p50, "ms");
    result.set("p90_ms", f.p90, "ms");
    result.set("ok_frac", static_cast<double>(phase.answered) / static_cast<double>(offsets.size()),
               "fraction");
    result.set("client.requests", static_cast<double>(offsets.size()), "count");
    result.set("client.p99_ms", quantile(f.log.values(), 0.99), "ms");
    result.set("client.p999_ms", quantile(f.log.values(), 0.999), "ms");
    std::vector<double> late_ms(offsets.size());
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        late_ms[i] = static_cast<double>(phase.sent[i] - phase.due[i]) * 1e-6;
    }
    result.set("client.late_ms_p99", quantile(late_ms, 0.99), "ms");
    result.set("client.late_ms_max", quantile(late_ms, 1.0), "ms");
    const auto [lo, hi] = std::minmax_element(phase.replica_rows.begin(), phase.replica_rows.end());
    result.set("core.replica_rows_ratio",
               *lo > 0 ? static_cast<double>(*hi) / static_cast<double>(*lo) : 0.0, "ratio");
    result.set("core.cache_hit_rate", s->service->cache_hit_rate(), "fraction");
    phase.refused.report(result);
    // Round-robin from one submitting thread alternates replicas exactly.
    result.check(*hi - *lo <= 1, "open-stream: round-robin rows per replica differ by more than one");

    // Quality: a label-only surrogate distilled from the first answered rows.
    const std::size_t take = std::min(kDistillRows, offsets.size());
    tensor::Matrix rows(take, s->serving.cols());
    std::vector<int> labels(take);
    for (std::size_t i = 0; i < take; ++i) {
        const tensor::Vector u = make_row(*s, phase.first + i);
        std::copy(u.begin(), u.end(), rows.row_span(i).begin());
        labels[i] = phase.labels[i];
    }
    const Quality q = distill_quality(s->d, s->d.fleet.front(), rows, labels, options.seed);
    result.set("fidelity", q.fidelity, "fraction");
    result.set("adv_acc", q.adv_acc, "fraction");

    if (options.trace) {
        const std::vector<std::int64_t> traced_offsets =
            schedule(options.seed ^ 0x7EACEull, options.seconds / 2.0);
        const std::vector<int> traced_reference = phase_reference(*s, traced_offsets.size());
        Tracer& tracer = Tracer::instance();
        tracer.set_on(true);
        const Phase traced = run_phase(*s, traced_offsets, traced_reference, true, result);
        TracedPhase tp;
        tp.start_ns = traced.start_ns;
        tp.end_ns = traced.end_ns;
        tp.replicas = kReplicas;
        for (std::size_t i = 0; i < traced_offsets.size(); ++i) {
            if (!traced.ok[i]) continue;
            const std::uint64_t req =
                tracer.record("client.request", traced.due[i], traced.done[i], 0, traced.first + i);
            tracer.record("client.late", traced.due[i], traced.sent[i], req, traced.first + i);
            tracer.record("core.submit", traced.sent[i], traced.submitted[i], req, traced.first + i);
            tracer.record("core.wait", traced.submitted[i], traced.done[i], req, traced.first + i);
            tp.submit_miss_us.push_back(
                static_cast<double>(traced.submitted[i] - traced.sent[i]) * 1e-3);
            tp.requests.push_back(
                {traced.keys[i], traced.sent[i], traced.submitted[i], traced.done[i]});
        }
        tracer.set_on(false);
        const Figures ft = figures(traced);
        set_trace_overhead(result, f.qps, ft.qps, f.p50, ft.p50);
        trace_metrics(tp, result);
        const GemmReplay g = replay_backend_gemm(
            static_cast<std::size_t>(std::lround(result.metrics["core.batch_rows_mean"].value)),
            s->serving.cols(), s->d.fleet.front().outputs());
        result.set("tensor.gemm_gflops_backend", g.gflops, "GFLOP/s");
        result.set("tensor.gemm_bytes_backend", g.bytes, "bytes");
        write_trace_report(options, result);
    }
}

}  // namespace perfbench
