#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "xbarsec/attack/fgsm.hpp"
#include "xbarsec/attack/surrogate.hpp"
#include "xbarsec/common/timer.hpp"
#include "xbarsec/core/fig5.hpp"
#include "xbarsec/core/service.hpp"
#include "xbarsec/data/loaders.hpp"
#include "xbarsec/tensor/gemm.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace perfbench {

using namespace xbarsec;

void Result::check(bool ok, const std::string& what) {
    if (ok) return;
    std::lock_guard lock(check_mutex_);
    correct = false;
    if (check_failures.size() < 16) check_failures.push_back(what);
}

void Refusals::count_current() {
    try {
        throw;
    } catch (const core::QueryBudgetExceeded&) {
        ++budget;
    } catch (const core::RateLimited&) {
        ++rate;
    } catch (const core::QueryRefused&) {
        ++policy;
    } catch (const core::AccessDenied&) {
        ++access;
    } catch (const core::SessionClosed&) {
        ++closed;
    } catch (...) {
        ++other;
    }
}

void Refusals::add(const Refusals& o) {
    budget += o.budget;
    rate += o.rate;
    policy += o.policy;
    access += o.access;
    closed += o.closed;
    other += o.other;
}

void Refusals::report(Result& result) const {
    result.set("core.refused", static_cast<double>(total()), "count");
    result.set("core.refused_budget", static_cast<double>(budget), "count");
    result.set("core.refused_rate", static_cast<double>(rate), "count");
    result.set("core.refused_policy", static_cast<double>(policy), "count");
    result.set("core.refused_access", static_cast<double>(access), "count");
    result.set("core.refused_closed", static_cast<double>(closed), "count");
    result.set("core.refused_other", static_cast<double>(other), "count");
}

// ---- deployment -----------------------------------------------------------------

namespace {

tensor::Matrix row_range(const tensor::Matrix& M, std::size_t begin, std::size_t end) {
    tensor::Matrix out(end - begin, M.cols());
    std::copy(M.data() + begin * M.cols(), M.data() + end * M.cols(), out.data());
    return out;
}

}  // namespace

Deployment deploy(std::size_t replicas) {
    Deployment d;
    data::LoadOptions load;
    load.train_count = 4000;
    load.test_count = kTestRows;
    load.seed = 42;
    WallTimer timer;
    {
        ScopedSpan span("data.load");
        d.split = data::load_mnist_like(load);
    }
    d.load_s = timer.seconds();

    d.config = core::VictimConfig::defaults(core::OutputConfig::softmax_ce());
    d.config.train.epochs = 8;
    timer.reset();
    {
        ScopedSpan span("nn.train_victim");
        d.victim = core::train_victim(d.split, d.config);
    }
    d.train_s = timer.seconds();
    d.fleet = core::deploy_victim_fleet(d.victim.net, d.config, replicas);
    return d;
}

tensor::Matrix Deployment::serving_rows() const {
    return row_range(split.test.inputs(), 0, kServingRows);
}

tensor::Matrix Deployment::eval_rows() const {
    return row_range(split.test.inputs(), kServingRows, kTestRows);
}

std::vector<int> Deployment::eval_labels() const {
    const auto& labels = split.test.labels();
    return {labels.begin() + static_cast<std::ptrdiff_t>(kServingRows), labels.end()};
}

double Deployment::max_column_l1() const {
    return tensor::max(tensor::column_abs_sums(
        fleet.front().hardware_for_evaluation().effective_network().weights()));
}

std::vector<int> reference_labels(core::Oracle& replica, const tensor::Matrix& U) {
    constexpr std::size_t kChunk = 4096;
    std::vector<int> out;
    out.reserve(U.rows());
    for (std::size_t begin = 0; begin < U.rows(); begin += kChunk) {
        const std::size_t end = std::min(U.rows(), begin + kChunk);
        const std::vector<int> part = replica.query_labels(row_range(U, begin, end));
        out.insert(out.end(), part.begin(), part.end());
    }
    return out;
}

// ---- statistics -----------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

void LatencyLog::append(const LatencyLog& other) {
    done_us.insert(done_us.end(), other.done_us.begin(), other.done_us.end());
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
}

double windowed_quantile(const LatencyLog& log, double q) {
    constexpr std::size_t kMinSamples = 1000;
    const auto width = static_cast<std::uint64_t>(kWindowS * 1e6);
    std::map<std::uint64_t, std::vector<double>> windows;
    for (std::size_t i = 0; i < log.size(); ++i) {
        windows[log.done_us[i] / width].push_back(log.latency_ms[i]);
    }
    std::vector<double> per_window;
    for (auto& [index, samples] : windows) {
        if (samples.size() >= kMinSamples) per_window.push_back(quantile(std::move(samples), q));
    }
    if (per_window.size() < 2) return quantile(log.values(), q);
    return median(std::move(per_window));
}

void WindowRows::add(std::int64_t done_ns, std::uint64_t n) {
    const auto w = static_cast<std::size_t>(std::max<std::int64_t>(0, done_ns - start_ns) /
                                            static_cast<std::int64_t>(kWindowS * 1e9));
    if (w >= rows.size()) rows.resize(w + 1, 0);
    rows[w] += n;
}

void WindowRows::merge(const WindowRows& other) {
    if (other.rows.size() > rows.size()) rows.resize(other.rows.size(), 0);
    for (std::size_t w = 0; w < other.rows.size(); ++w) rows[w] += other.rows[w];
}

double windowed_rate(const WindowRows& counts, std::int64_t end_ns) {
    const auto full = static_cast<std::size_t>((end_ns - counts.start_ns) /
                                               static_cast<std::int64_t>(kWindowS * 1e9));
    double total = 0.0;
    for (const std::uint64_t n : counts.rows) total += static_cast<double>(n);
    if (full < 2) return total / seconds_between(counts.start_ns, end_ns);
    std::vector<double> rates;
    for (std::size_t w = 0; w < full; ++w) {
        rates.push_back(w < counts.rows.size() ? static_cast<double>(counts.rows[w]) / kWindowS
                                               : 0.0);
    }
    return median(std::move(rates));
}

// ---- quality --------------------------------------------------------------------

double accuracy(const std::vector<int>& predicted, const std::vector<int>& truth) {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < predicted.size(); ++i) hits += predicted[i] == truth[i] ? 1 : 0;
    return predicted.empty() ? 0.0
                             : static_cast<double>(hits) / static_cast<double>(predicted.size());
}

double label_agreement(const nn::SingleLayerNet& surrogate, const tensor::Matrix& X,
                       const std::vector<int>& victim_labels) {
    return accuracy(tensor::argmax_rows(surrogate.predict_batch(X)), victim_labels);
}

Quality distill_quality(const Deployment& d, core::Oracle& scorer, const tensor::Matrix& rows,
                        const std::vector<int>& labels, std::uint64_t seed) {
    attack::QueryDataset queries;
    queries.inputs = rows;
    queries.outputs = data::one_hot(labels, d.split.test.num_classes());
    queries.power = tensor::Vector(rows.rows(), 0.0);

    attack::SurrogateConfig config;
    config.power_loss_weight = 0.0;
    config.train = core::surrogate_schedule(rows.rows(), tensor::mean_squared_row_norm(rows, 512));
    config.train.shuffle_seed = seed ^ 0x51A7ull;
    config.init_seed = seed ^ 0x1D17ull;
    const nn::SingleLayerNet surrogate = attack::train_surrogate(queries, config).surrogate;

    const tensor::Matrix eval = d.eval_rows();
    const std::vector<int> truth = d.eval_labels();
    const std::vector<int> victim = reference_labels(scorer, eval);
    const tensor::Matrix adv = attack::fgsm_attack_batch(surrogate, eval, truth,
                                                         d.split.test.num_classes(), kFgsmEpsilon);
    Quality q;
    q.fidelity = label_agreement(surrogate, eval, victim);
    q.adv_acc = accuracy(reference_labels(scorer, adv), truth);
    return q;
}

// ---- host -----------------------------------------------------------------------

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {
volatile double ref_loop_sink = 0.0;  ///< keeps the reference loop observable
}  // namespace

double host_ref_loop_s() {
    WallTimer timer;
    std::uint64_t s = 0x9E3779B97F4A7C15ull;
    double acc = 0.0;
    for (int i = 0; i < 40'000'000; ++i) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        acc += static_cast<double>(s >> 11) * 0x1.0p-53;
    }
    ref_loop_sink = acc;
    return timer.seconds();
}

namespace {

/// Calls `step` until at least 0.1 s and 8 calls have passed; seconds per call.
template <typename Step>
double time_per_call(Step&& step) {
    WallTimer timer;
    std::size_t calls = 0;
    while (calls < 8 || timer.seconds() < 0.1) {
        step();
        ++calls;
    }
    return timer.seconds() / static_cast<double>(calls);
}

}  // namespace

GemmReplay replay_backend_gemm(std::size_t rows, std::size_t inputs, std::size_t outputs) {
    Rng rng(3);
    const tensor::Matrix V = tensor::Matrix::random_uniform(rng, std::max<std::size_t>(rows, 1), inputs);
    const tensor::Matrix G = tensor::Matrix::random_uniform(rng, inputs, outputs);
    tensor::Matrix out(V.rows(), outputs);
    const double seconds = time_per_call([&] {
        tensor::gemm_rowstable(1.0, V, tensor::Op::None, G, tensor::Op::None, 0.0, out);
    });
    const double m = static_cast<double>(V.rows()), k = static_cast<double>(inputs),
                 n = static_cast<double>(outputs);
    return {2.0 * m * k * n / seconds * 1e-9, 8.0 * (m * k + k * n + m * n)};
}

GemmReplay replay_train_gemm(std::size_t inputs, std::size_t outputs) {
    constexpr std::size_t kBatch = 32;
    Rng rng(5);
    const tensor::Matrix X = tensor::Matrix::random_uniform(rng, kBatch, inputs);
    const tensor::Matrix W = tensor::Matrix::random_uniform(rng, outputs, inputs);
    tensor::Matrix S(kBatch, outputs);
    tensor::Matrix grad(outputs, inputs);
    const double seconds = time_per_call([&] {
        tensor::gemm(1.0, X, tensor::Op::None, W, tensor::Op::Transpose, 0.0, S);
        tensor::gemm(1.0 / kBatch, S, tensor::Op::Transpose, X, tensor::Op::None, 0.0, grad);
    });
    const double b = kBatch, k = static_cast<double>(inputs), n = static_cast<double>(outputs);
    return {4.0 * b * k * n / seconds * 1e-9, 8.0 * 2.0 * (b * k + k * n + b * n)};
}

std::string active_gemm_arm() {
    const tensor::KernelVariant forced = tensor::forced_kernel_variant();
    if (forced != tensor::KernelVariant::Auto) return tensor::to_string(forced);
    for (const auto v : {tensor::KernelVariant::Avx512, tensor::KernelVariant::Avx2}) {
        if (tensor::kernel_variant_available(v)) return tensor::to_string(v);
    }
    return tensor::to_string(tensor::KernelVariant::Portable);
}

}  // namespace perfbench
