// Shared pieces of the perfbench workloads: the deployment every
// workload serves, the result record, latency statistics, answer
// references, the label-only quality evaluation, and host provenance.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "trace.hpp"
#include "xbarsec/core/oracle.hpp"
#include "xbarsec/core/victim.hpp"
#include "xbarsec/data/dataset.hpp"
#include "xbarsec/nn/network.hpp"
#include "xbarsec/tensor/matrix.hpp"

namespace perfbench {

namespace core = xbarsec::core;
namespace data = xbarsec::data;
namespace nn = xbarsec::nn;
namespace tensor = xbarsec::tensor;

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (the clock every span and latency uses).
inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
        .count();
}

inline double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
    return static_cast<double>(b_ns - a_ns) * 1e-9;
}

/// Command-line options of one run.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".";
};

/// Everything one run measured. `metrics` holds every end-to-end and
/// per-layer number the workload produced (run.py prints the subset that
/// BENCHMARK.json names for the run's mode); `info` holds provenance.
class Result {
public:
    struct Metric {
        double value = 0.0;
        std::string unit;
    };

    void set(const std::string& name, double value, const std::string& unit) {
        metrics[name] = Metric{value, unit};
    }
    void note(const std::string& key, const std::string& value) { info[key] = value; }

    /// Records a failed answer check; the run is then reported incorrect.
    void check(bool ok, const std::string& what);

    bool correct = true;  ///< written by check() only while clients run
    std::uint64_t attempted = 0;  ///< requests (submission units) attempted
    std::uint64_t failed = 0;     ///< requests refused or failed
    std::map<std::string, Metric> metrics;
    std::map<std::string, std::string> info;
    std::vector<std::string> check_failures;  ///< first few, for the result file

private:
    std::mutex check_mutex_;  ///< client threads report failed checks concurrently
};

// ---- the deployment under test ------------------------------------------------

/// Rows of the synthetic-MNIST test split: the first half is the serving
/// pool clients draw from, the second half the held-out evaluation set of
/// the quality metrics.
constexpr std::size_t kTestRows = 4096;
constexpr std::size_t kServingRows = 2048;

/// The trained victim and its replica fleet. Data and training seeds are
/// fixed: the workload seed draws traffic, not the deployment, so every
/// seed serves the same model.
struct Deployment {
    data::DataSplit split;
    core::VictimConfig config;
    core::TrainedVictim victim;
    std::vector<core::CrossbarOracle> fleet;
    double load_s = 0.0;   ///< data::load_mnist_like
    double train_s = 0.0;  ///< core::train_victim

    tensor::Matrix serving_rows() const;
    tensor::Matrix eval_rows() const;
    std::vector<int> eval_labels() const;

    /// max_j ‖W[:,j]‖₁ of the deployed weights (noise scale reference).
    double max_column_l1() const;
};

Deployment deploy(std::size_t replicas);

/// `replica`'s serial answers for every row of U, computed before a timed
/// phase (the answer-check reference). Chunked so huge inputs stay small.
std::vector<int> reference_labels(core::Oracle& replica, const tensor::Matrix& U);

/// Refused or failed submissions, counted by the exception's reason.
struct Refusals {
    std::uint64_t budget = 0;  ///< core::QueryBudgetExceeded
    std::uint64_t rate = 0;    ///< core::RateLimited
    std::uint64_t policy = 0;  ///< core::QueryRefused (detector block, quarantine, probation)
    std::uint64_t access = 0;  ///< core::AccessDenied (raw or power withheld)
    std::uint64_t closed = 0;  ///< core::SessionClosed
    std::uint64_t other = 0;   ///< any other exception

    /// Classifies the exception in flight; call from a catch block.
    void count_current();
    void add(const Refusals& other);
    std::uint64_t total() const { return budget + rate + policy + access + closed + other; }
    void report(Result& result) const;
};

// ---- statistics ---------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Latency samples of a timed phase, 8 bytes a request: completion time
/// in µs after the phase start, and latency in ms. Compact so that the
/// benchmark's own bookkeeping barely moves `peak_rss_mb` when a closed
/// loop's throughput changes.
struct LatencyLog {
    std::int64_t start_ns = 0;
    std::vector<std::uint32_t> done_us;
    std::vector<float> latency_ms;

    void add(std::int64_t done_ns, double ms) {
        done_us.push_back(static_cast<std::uint32_t>((done_ns - start_ns) / 1000));
        latency_ms.push_back(static_cast<float>(ms));
    }
    void append(const LatencyLog& other);  ///< same start_ns
    std::size_t size() const { return latency_ms.size(); }
    std::vector<double> values() const { return {latency_ms.begin(), latency_ms.end()}; }
};

/// Window of the latency quantiles and rates: short enough that a host
/// stall of a few milliseconds spoils a minority of windows, long enough
/// that the 99th percentile of a window still has many samples beyond it.
constexpr double kWindowS = 0.25;

/// The quantile of each kWindowS window (by completion time) that holds at
/// least 1000 samples, and the median of those per-window quantiles: a
/// host stall then moves one window, not the run's figure. With fewer than
/// two such windows, the whole-run quantile.
double windowed_quantile(const LatencyLog& log, double q);

/// Rows answered in each kWindowS window after `start_ns`. Each client
/// thread counts its own completions; the phase merges the counts.
struct WindowRows {
    std::int64_t start_ns = 0;
    std::vector<std::uint64_t> rows;

    void add(std::int64_t done_ns, std::uint64_t n);
    void merge(const WindowRows& other);  ///< same start_ns
};

/// Rows per second in each full window before `end_ns`, and the median over
/// those windows. With fewer than two full windows: all rows / duration.
double windowed_rate(const WindowRows& counts, std::int64_t end_ns);

// ---- quality --------------------------------------------------------------------

/// Fidelity and transfer of one surrogate.
struct Quality {
    double fidelity = 0.0;  ///< label agreement with the victim on held-out rows
    double adv_acc = 0.0;   ///< victim accuracy on FGSM examples crafted on it
};

/// FGSM step used by every workload's quality evaluation.
constexpr double kFgsmEpsilon = 0.1;

/// Label agreement between a surrogate and the victim's reference labels.
double label_agreement(const nn::SingleLayerNet& surrogate, const tensor::Matrix& X,
                       const std::vector<int>& victim_labels);

double accuracy(const std::vector<int>& predicted, const std::vector<int>& truth);

/// Fits the label-only (λ = 0) Eq. 9 surrogate on rows a workload's
/// clients had answered, then scores it against the deployment: fidelity
/// on the held-out rows, and the victim's accuracy on FGSM examples
/// crafted on the surrogate (scored through `scorer`, untimed).
Quality distill_quality(const Deployment& d, core::Oracle& scorer, const tensor::Matrix& rows,
                        const std::vector<int>& labels, std::uint64_t seed);

// ---- host ---------------------------------------------------------------------

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Wall time of a fixed scalar compute loop: a host-speed probe recorded
/// next to every result so a slow run can be traced to the host.
double host_ref_loop_s();

/// Name of the GEMM kernel arm the library dispatches to on this host.
std::string active_gemm_arm();

/// Set-ups per run: a run reports the median of these complete set-ups,
/// so one slow set-up does not move the figure.
constexpr int kSetupRepeats = 3;

/// Builds kSetupRepeats complete set-ups with `set_up()` (which returns a
/// pointer to a struct holding the Deployment `d`), keeps the last, and
/// records the median `setup_s`, `data.load_s` and `nn.train_victim_s`.
/// A traced run records the spans of the last set-up only.
template <typename SetUp>
auto repeated_setup(const Options& options, Result& result, SetUp&& set_up) {
    std::vector<double> setup_s, load_s, train_s;
    decltype(set_up()) kept;
    for (int k = 0; k < kSetupRepeats; ++k) {
        kept.reset();
        Tracer::instance().set_on(options.trace && k + 1 == kSetupRepeats);
        const std::int64_t t0 = now_ns();
        kept = set_up();
        setup_s.push_back(seconds_between(t0, now_ns()));
        Tracer::instance().set_on(false);
        load_s.push_back(kept->d.load_s);
        train_s.push_back(kept->d.train_s);
    }
    result.set("setup_s", median(setup_s), "s");
    result.set("data.load_s", median(load_s), "s");
    result.set("nn.train_victim_s", median(train_s), "s");
    return kept;
}

/// tensor::gemm replayed at one product shape: achieved rate and the bytes
/// one call computes over (operands read plus result written).
struct GemmReplay {
    double gflops = 0.0;
    double bytes = 0.0;
};

/// The crossbar's batched measurement GEMM at `rows` × inputs · inputs ×
/// outputs (what one backend batch call runs).
GemmReplay replay_backend_gemm(std::size_t rows, std::size_t inputs, std::size_t outputs);

/// One surrogate-training minibatch step's two GEMMs: 32 × inputs forward
/// and the outputs × inputs weight gradient.
GemmReplay replay_train_gemm(std::size_t inputs, std::size_t outputs);

// ---- workloads ------------------------------------------------------------------

/// Each runs one workload end to end and fills the result. In a traced
/// run the timed phase is split: its first half untraced, its second half
/// traced, so the result carries the tracing overhead next to the
/// per-layer metrics.
void run_tenant_mix(const Options& options, Result& result);
void run_open_stream(const Options& options, Result& result);
void run_extract(const Options& options, Result& result);

}  // namespace perfbench
