// Span tracing for the traced run (--trace 1).
//
// Spans are recorded from the benchmark's own code around the calls it
// makes into each layer: Session::submit_* and the wait for the answer
// (core), Session::close (attrib), the extraction phases (sidechannel,
// attack), set-up steps (data, nn, sidechannel), and every backend call
// through TimingOracle, a forwarding Oracle the benchmark puts in front
// of each replica (xbar). Spans live in per-thread buffers in memory and
// are written out when the run ends. A span's name is "<layer>.<stage>".
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "xbarsec/core/oracle.hpp"

namespace perfbench {

struct Span {
    const char* name = "";      ///< "<layer>.<stage>", a string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;       ///< (thread << 32) | (index + 1); never 0
    std::uint64_t parent = 0;   ///< id of the causing span, 0 for a root
    std::uint64_t request = 0;  ///< client request id, 0 when none
    std::uint32_t rows = 0;     ///< query rows the span carried
};

/// Content key of one row a backend span answered.
struct RowMark {
    std::uint64_t key = 0;
    std::uint64_t span = 0;
};

class Tracer {
public:
    static Tracer& instance();

    /// Recording switch. While off, open/record return 0 and close,
    /// mark_row ignore their arguments.
    bool on() const { return on_.load(std::memory_order_relaxed); }
    void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

    /// Opens a span on the calling thread; close it on the same thread.
    std::uint64_t open(const char* name, std::uint64_t parent = 0, std::uint64_t request = 0);
    void close(std::uint64_t id, std::uint32_t rows = 0);

    /// Records a finished span.
    std::uint64_t record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                         std::uint64_t parent = 0, std::uint64_t request = 0,
                         std::uint32_t rows = 0);

    void mark_row(std::uint64_t key, std::uint64_t span);

    /// Parent of backend spans: the extraction phase open on the single
    /// attacker thread (0 on the serving workloads, whose backend spans
    /// answer many requests at once).
    void set_backend_parent(std::uint64_t id) {
        backend_parent_.store(id, std::memory_order_relaxed);
    }
    std::uint64_t backend_parent() const {
        return backend_parent_.load(std::memory_order_relaxed);
    }

    /// Everything recorded so far; call once the recording threads are idle.
    std::vector<Span> spans() const;
    std::vector<RowMark> row_marks() const;

private:
    struct Buffer {
        std::uint64_t thread = 0;
        std::vector<Span> spans;
        std::vector<RowMark> rows;
    };
    Buffer& local();

    std::atomic<bool> on_{false};
    std::atomic<std::uint64_t> backend_parent_{0};
    mutable std::mutex mutex_;  ///< guards buffers_ (registration and reads)
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Opens a span for the enclosing scope (no-op while tracing is off).
class ScopedSpan {
public:
    explicit ScopedSpan(const char* name, std::uint64_t parent = 0, std::uint64_t request = 0)
        : id_(Tracer::instance().open(name, parent, request)) {}
    ~ScopedSpan() { Tracer::instance().close(id_, rows_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::uint64_t id() const { return id_; }
    void set_rows(std::uint32_t rows) { rows_ = rows; }

private:
    std::uint64_t id_;
    std::uint32_t rows_ = 0;
};

/// 64-bit content key of a query row (matches client rows to backend rows).
std::uint64_t row_key(std::span<const double> row);

/// Forwards every query to one replica. While tracing is on it records a
/// span per backend call ("xbar.label" / "xbar.raw" / "xbar.power") and
/// the content key of every row the call answered.
class TimingOracle final : public xbarsec::core::Oracle {
public:
    explicit TimingOracle(xbarsec::core::Oracle& inner) : inner_(&inner) {}

    std::size_t inputs() const override { return inner_->inputs(); }
    std::size_t outputs() const override { return inner_->outputs(); }

    int query_label(const xbarsec::tensor::Vector& u) override;
    xbarsec::tensor::Vector query_raw(const xbarsec::tensor::Vector& u) override;
    double query_power(const xbarsec::tensor::Vector& u) override;
    std::vector<int> query_labels(const xbarsec::tensor::Matrix& U) override;
    xbarsec::tensor::Matrix query_raw_batch(const xbarsec::tensor::Matrix& U) override;
    xbarsec::tensor::Vector query_power_batch(const xbarsec::tensor::Matrix& U) override;

    xbarsec::core::QueryCounters counters() const override { return inner_->counters(); }
    void reset_counters() override { inner_->reset_counters(); }

private:
    void note(const char* name, std::int64_t start_ns, const xbarsec::tensor::Matrix* U,
              const xbarsec::tensor::Vector* u);

    xbarsec::core::Oracle* inner_;
};

/// One client request, for matching against the backend span that
/// answered it: the queue wait runs from submit return to that span's
/// start, delivery from its end to the answer in hand.
struct RequestMark {
    std::uint64_t key = 0;
    std::int64_t submit_start_ns = 0;
    std::int64_t submit_end_ns = 0;
    std::int64_t done_ns = 0;
};

struct Options;
class Result;

/// What a workload's traced half hands to the per-layer report.
struct TracedPhase {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::size_t replicas = 1;
    std::vector<RequestMark> requests;   ///< scalar requests that reached a backend
    std::vector<double> submit_hit_us;   ///< submit calls answered from the cache
    std::vector<double> submit_miss_us;  ///< every other submit call
};

/// Derives the core.* and xbar.* per-layer metrics from the traced half's
/// spans.
void trace_metrics(const TracedPhase& phase, Result& result);

/// Writes the span file and the per-layer report (self times, per-layer
/// metrics, stage replays, tracing overhead) to the output directory.
void write_trace_report(const Options& options, Result& result);

/// Records the tracing overhead: the traced half's end-to-end figures
/// against the untraced half's.
void set_trace_overhead(Result& result, double qps_untraced, double qps_traced,
                        double p50_untraced_ms, double p50_traced_ms);

}  // namespace perfbench
