#include "trace.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <unordered_map>

#include "harness.hpp"

namespace perfbench {

using namespace xbarsec;

Tracer& Tracer::instance() {
    static Tracer tracer;
    return tracer;
}

Tracer::Buffer& Tracer::local() {
    thread_local Buffer* buffer = nullptr;
    if (buffer == nullptr) {
        auto owned = std::make_unique<Buffer>();
        owned->spans.reserve(1 << 16);
        std::lock_guard lock(mutex_);
        owned->thread = buffers_.size() + 1;
        buffer = owned.get();
        buffers_.push_back(std::move(owned));
    }
    return *buffer;
}

std::uint64_t Tracer::open(const char* name, std::uint64_t parent, std::uint64_t request) {
    return record(name, now_ns(), 0, parent, request, 0);
}

void Tracer::close(std::uint64_t id, std::uint32_t rows) {
    if (id == 0) return;
    Buffer& buffer = local();
    Span& span = buffer.spans[(id & 0xFFFFFFFFull) - 1];
    span.end_ns = now_ns();
    span.rows = rows;
}

std::uint64_t Tracer::record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                             std::uint64_t parent, std::uint64_t request, std::uint32_t rows) {
    if (!on()) return 0;
    Buffer& buffer = local();
    Span span;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.id = (buffer.thread << 32) | (buffer.spans.size() + 1);
    span.parent = parent;
    span.request = request;
    span.rows = rows;
    buffer.spans.push_back(span);
    return span.id;
}

void Tracer::mark_row(std::uint64_t key, std::uint64_t span) {
    if (span == 0) return;
    local().rows.push_back(RowMark{key, span});
}

std::vector<Span> Tracer::spans() const {
    std::lock_guard lock(mutex_);
    std::vector<Span> out;
    for (const auto& buffer : buffers_) {
        out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    }
    return out;
}

std::vector<RowMark> Tracer::row_marks() const {
    std::lock_guard lock(mutex_);
    std::vector<RowMark> out;
    for (const auto& buffer : buffers_) {
        out.insert(out.end(), buffer->rows.begin(), buffer->rows.end());
    }
    return out;
}

std::uint64_t row_key(std::span<const double> row) {
    // Four independent FNV-1a lanes over the bit patterns, so the hash is
    // not one long dependency chain; folded at the end.
    std::uint64_t lane[4] = {0xCBF29CE484222325ull, 0x84222325CBF29CE4ull, 0x100000001B3ull,
                             0x9E3779B97F4A7C15ull};
    for (std::size_t i = 0; i < row.size(); ++i) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &row[i], sizeof bits);
        std::uint64_t& h = lane[i & 3];
        h = (h ^ bits) * 0x100000001B3ull;
    }
    std::uint64_t h = lane[0];
    for (int k = 1; k < 4; ++k) h = (h ^ (lane[k] + 0x9E3779B97F4A7C15ull + (h << 6))) * 0xFF51AFD7ED558CCDull;
    return h ^ (h >> 33);
}

// ---- TimingOracle -----------------------------------------------------------------

void TimingOracle::note(const char* name, std::int64_t start_ns, const tensor::Matrix* U,
                        const tensor::Vector* u) {
    Tracer& tracer = Tracer::instance();
    const std::int64_t end_ns = now_ns();
    const std::uint32_t rows = U != nullptr ? static_cast<std::uint32_t>(U->rows()) : 1u;
    const std::uint64_t id =
        tracer.record(name, start_ns, end_ns, tracer.backend_parent(), 0, rows);
    if (id == 0) return;
    if (U != nullptr) {
        for (std::size_t r = 0; r < U->rows(); ++r) tracer.mark_row(row_key(U->row_span(r)), id);
    } else {
        tracer.mark_row(row_key({u->data(), u->size()}), id);
    }
}

int TimingOracle::query_label(const tensor::Vector& u) {
    const std::int64_t t0 = now_ns();
    const int out = inner_->query_label(u);
    note("xbar.label", t0, nullptr, &u);
    return out;
}

tensor::Vector TimingOracle::query_raw(const tensor::Vector& u) {
    const std::int64_t t0 = now_ns();
    tensor::Vector out = inner_->query_raw(u);
    note("xbar.raw", t0, nullptr, &u);
    return out;
}

double TimingOracle::query_power(const tensor::Vector& u) {
    const std::int64_t t0 = now_ns();
    const double out = inner_->query_power(u);
    note("xbar.power", t0, nullptr, &u);
    return out;
}

std::vector<int> TimingOracle::query_labels(const tensor::Matrix& U) {
    const std::int64_t t0 = now_ns();
    std::vector<int> out = inner_->query_labels(U);
    note("xbar.label", t0, &U, nullptr);
    return out;
}

tensor::Matrix TimingOracle::query_raw_batch(const tensor::Matrix& U) {
    const std::int64_t t0 = now_ns();
    tensor::Matrix out = inner_->query_raw_batch(U);
    note("xbar.raw", t0, &U, nullptr);
    return out;
}

tensor::Vector TimingOracle::query_power_batch(const tensor::Matrix& U) {
    const std::int64_t t0 = now_ns();
    tensor::Vector out = inner_->query_power_batch(U);
    note("xbar.power", t0, &U, nullptr);
    return out;
}

// ---- analysis -----------------------------------------------------------------------

namespace {

struct QueueTimes {
    std::vector<double> queue_wait_us;
    std::vector<double> deliver_us;
    std::size_t unmatched = 0;
};

/// Matches requests to backend rows by content key, first-come first-served;
/// a backend row that started before a request was submitted answered an
/// earlier request and is skipped.
QueueTimes match_requests(std::vector<RequestMark> requests, const std::vector<Span>& spans,
                          const std::vector<RowMark>& rows) {
    std::unordered_map<std::uint64_t, const Span*> by_id;
    for (const Span& s : spans) by_id.emplace(s.id, &s);

    // Backend rows per key, in the order the backend answered them.
    std::unordered_map<std::uint64_t, std::vector<const Span*>> answered;
    for (const RowMark& mark : rows) {
        const auto it = by_id.find(mark.span);
        if (it != by_id.end()) answered[mark.key].push_back(it->second);
    }
    for (auto& [key, list] : answered) {
        std::stable_sort(list.begin(), list.end(),
                         [](const Span* a, const Span* b) { return a->start_ns < b->start_ns; });
    }
    std::sort(requests.begin(), requests.end(), [](const RequestMark& a, const RequestMark& b) {
        return a.submit_end_ns < b.submit_end_ns;
    });

    QueueTimes out;
    std::unordered_map<std::uint64_t, std::size_t> next;
    for (const RequestMark& r : requests) {
        const auto it = answered.find(r.key);
        std::size_t& cursor = next[r.key];
        if (it != answered.end()) {
            while (cursor < it->second.size() && it->second[cursor]->start_ns < r.submit_start_ns) {
                ++cursor;
            }
        }
        if (it == answered.end() || cursor >= it->second.size()) {
            ++out.unmatched;
            continue;
        }
        const Span* span = it->second[cursor++];
        out.queue_wait_us.push_back(static_cast<double>(span->start_ns - r.submit_end_ns) * 1e-3);
        out.deliver_us.push_back(static_cast<double>(r.done_ns - span->end_ns) * 1e-3);
    }
    return out;
}

/// Self time per span name: duration minus the part of it the span's
/// children cover.
struct SelfTime {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
    std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
    for (const Span& s : spans) {
        if (s.parent != 0) children[s.parent].push_back(&s);
    }
    std::map<std::string, SelfTime> by_name;
    for (const Span& s : spans) {
        if (s.end_ns <= s.start_ns) continue;
        const auto duration = static_cast<double>(s.end_ns - s.start_ns);
        // Union of the children's intervals, clipped to this span.
        double covered = 0.0;
        const auto it = children.find(s.id);
        if (it != children.end()) {
            std::vector<std::pair<std::int64_t, std::int64_t>> iv;
            for (const Span* c : it->second) {
                const std::int64_t a = std::max(c->start_ns, s.start_ns);
                const std::int64_t b = std::min(c->end_ns, s.end_ns);
                if (b > a) iv.emplace_back(a, b);
            }
            std::sort(iv.begin(), iv.end());
            std::int64_t run_a = 0, run_b = -1;
            for (const auto& [a, b] : iv) {
                if (a > run_b) {
                    if (run_b > run_a) covered += static_cast<double>(run_b - run_a);
                    run_a = a;
                    run_b = b;
                } else {
                    run_b = std::max(run_b, b);
                }
            }
            if (run_b > run_a) covered += static_cast<double>(run_b - run_a);
        }
        SelfTime& row = by_name[s.name];
        row.name = s.name;
        ++row.count;
        row.total_ms += duration * 1e-6;
        row.self_ms += (duration - covered) * 1e-6;
    }
    std::vector<SelfTime> out;
    for (auto& [name, row] : by_name) out.push_back(row);
    return out;
}

/// Writes spans as CSV (id, parent, request, name, start_us, end_us, rows;
/// times relative to `origin_ns`). Returns false when the file cannot be
/// written.
bool write_spans_csv(const std::string& path, const std::vector<Span>& spans,
                     std::int64_t origin_ns) {
    std::ofstream out(path);
    if (!out) return false;
    out << "id,parent,request,name,start_us,end_us,rows\n";
    for (const Span& s : spans) {
        out << s.id << ',' << s.parent << ',' << s.request << ',' << s.name << ','
            << static_cast<double>(s.start_ns - origin_ns) * 1e-3 << ','
            << static_cast<double>(s.end_ns - origin_ns) * 1e-3 << ',' << s.rows << '\n';
    }
    return static_cast<bool>(out);
}


std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

bool starts_with(const std::string& s, const char* prefix) { return s.rfind(prefix, 0) == 0; }

}  // namespace

void set_trace_overhead(Result& result, double qps_untraced, double qps_traced,
                        double p50_untraced_ms, double p50_traced_ms) {
    result.set("trace.qps_untraced", qps_untraced, "rows/s");
    result.set("trace.qps_traced", qps_traced, "rows/s");
    result.set("trace.p50_ms_untraced", p50_untraced_ms, "ms");
    result.set("trace.p50_ms_traced", p50_traced_ms, "ms");
    result.set("trace.overhead_qps_frac", qps_untraced > 0.0 ? 1.0 - qps_traced / qps_untraced : 0.0,
               "fraction");
    result.set("trace.overhead_p50_frac",
               p50_untraced_ms > 0.0 ? p50_traced_ms / p50_untraced_ms - 1.0 : 0.0, "fraction");
}

void trace_metrics(const TracedPhase& phase, Result& result) {
    const Tracer& tracer = Tracer::instance();
    const std::vector<Span> spans = tracer.spans();

    // Backend spans of the traced half.
    double busy_ns = 0.0, rows = 0.0, calls = 0.0;
    double label_ns = 0.0, label_rows = 0.0, power_ns = 0.0, power_rows = 0.0;
    for (const Span& s : spans) {
        if (!starts_with(s.name, "xbar.") || s.start_ns < phase.start_ns ||
            s.end_ns > phase.end_ns) {
            continue;
        }
        const auto d = static_cast<double>(s.end_ns - s.start_ns);
        busy_ns += d;
        rows += s.rows;
        calls += 1.0;
        if (std::string(s.name) == "xbar.power") {
            power_ns += d;
            power_rows += s.rows;
        } else {
            label_ns += d;
            label_rows += s.rows;
        }
    }
    const double wall_ns = static_cast<double>(phase.end_ns - phase.start_ns) *
                           static_cast<double>(std::max<std::size_t>(phase.replicas, 1));
    result.set("xbar.busy_frac", wall_ns > 0.0 ? busy_ns / wall_ns : 0.0, "fraction");
    result.set("xbar.row_us_label", label_rows > 0.0 ? label_ns * 1e-3 / label_rows : 0.0, "us");
    result.set("xbar.row_us_power", power_rows > 0.0 ? power_ns * 1e-3 / power_rows : 0.0, "us");
    result.set("core.batch_rows_mean", calls > 0.0 ? rows / calls : 0.0, "rows");
    result.set("core.backend_calls", calls, "count");

    result.set("core.submit_us_p50_hit", quantile(phase.submit_hit_us, 0.5), "us");
    result.set("core.submit_us_p99_hit", quantile(phase.submit_hit_us, 0.99), "us");
    result.set("core.submit_us_p50_miss", quantile(phase.submit_miss_us, 0.5), "us");
    result.set("core.submit_us_p99_miss", quantile(phase.submit_miss_us, 0.99), "us");

    const QueueTimes queue = match_requests(phase.requests, spans, tracer.row_marks());
    result.set("core.queue_wait_us_p50", quantile(queue.queue_wait_us, 0.5), "us");
    result.set("core.deliver_us_p50", quantile(queue.deliver_us, 0.5), "us");
    result.set("core.matched_requests", static_cast<double>(queue.queue_wait_us.size()), "count");
    result.set("core.unmatched_requests", static_cast<double>(queue.unmatched), "count");
    result.set("trace.spans", static_cast<double>(spans.size()), "count");
}

void write_trace_report(const Options& options, Result& result) {
    const std::vector<Span> spans = Tracer::instance().spans();
    const std::string stem =
        options.out_dir + "/" + options.workload + "-seed" + std::to_string(options.seed);
    std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    for (const Span& s : spans) origin = std::min(origin, s.start_ns);
    const std::string csv = stem + "-spans.csv";
    if (!write_spans_csv(csv, spans, origin)) {
        result.check(false, "could not write the span file " + csv);
    }

    const std::vector<SelfTime> selfs = self_times(spans);
    std::map<std::string, double> layer_self;
    double total_self = 0.0;
    for (const SelfTime& row : selfs) {
        layer_self[layer_of(row.name)] += row.self_ms;
        total_self += row.self_ms;
    }

    const std::string md = stem + "-trace.md";
    std::ofstream out(md);
    out << "# Traced run: " << options.workload << ", seed " << options.seed << "\n\n";
    for (const auto& [key, value] : result.info) out << "- " << key << ": " << value << "\n";
    out << "- span file: " << csv.substr(csv.rfind('/') + 1) << " (" << spans.size()
        << " spans)\n\n";
    out << "## Self time by span (all spans of the run)\n\n"
        << "| span | layer | count | total ms | self ms | mean us |\n|---|---|---:|---:|---:|---:|\n";
    for (const SelfTime& row : selfs) {
        out << "| " << row.name << " | " << layer_of(row.name) << " | " << row.count << " | "
            << row.total_ms << " | " << row.self_ms << " | "
            << (row.count > 0 ? row.total_ms * 1e3 / static_cast<double>(row.count) : 0.0)
            << " |\n";
    }
    out << "\n## Self time by layer\n\n| layer | self ms | share |\n|---|---:|---:|\n";
    for (const auto& [layer, ms] : layer_self) {
        out << "| " << layer << " | " << ms << " | " << (total_self > 0.0 ? ms / total_self : 0.0)
            << " |\n";
    }
    const auto section = [&](const char* title, auto&& keep) {
        out << "\n## " << title << "\n\n| metric | value | unit |\n|---|---:|---|\n";
        for (const auto& [name, metric] : result.metrics) {
            if (keep(name)) out << "| " << name << " | " << metric.value << " | " << metric.unit << " |\n";
        }
    };
    const auto is_replay = [](const std::string& n) {
        return n.find("screen_us") != std::string::npos || n.find("hash_us") != std::string::npos ||
               n.find("observe_us") != std::string::npos || starts_with(n, "tensor.");
    };
    section("Stage replays (the workload's own rows and shapes)", is_replay);
    section("Tracing overhead (untraced half vs traced half)",
            [](const std::string& n) { return starts_with(n, "trace."); });
    section("Per-layer metrics", [&](const std::string& n) {
        return n.find('.') != std::string::npos && !is_replay(n) && !starts_with(n, "trace.");
    });
    section("End-to-end metrics (untraced half)",
            [](const std::string& n) { return n.find('.') == std::string::npos; });
    out << "\nSelf time is a span's duration minus the part of it its child spans cover. "
        << "On extract, backend (xbar.*) spans are children of the phase, or the scoring "
        << "wait, that caused them; on the serving workloads they are roots, because one "
        << "backend call answers many requests. Self time summed over all threads: "
        << total_self << " ms.\n";
    if (!out) result.check(false, "could not write the trace report " + md);
    result.note("trace_report", md.substr(md.rfind('/') + 1));
}

}  // namespace perfbench
