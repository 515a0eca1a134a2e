#include "xbarsec/core/oracle.hpp"

#include "xbarsec/common/rng.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::core {

// ---- Oracle -----------------------------------------------------------------

std::vector<int> Oracle::query_labels(const tensor::Matrix& U) {
    std::vector<int> labels(U.rows());
    for (std::size_t r = 0; r < U.rows(); ++r) labels[r] = query_label(U.row(r));
    return labels;
}

tensor::Matrix Oracle::query_raw_batch(const tensor::Matrix& U) {
    tensor::Matrix Y(U.rows(), outputs(), 0.0);
    for (std::size_t r = 0; r < U.rows(); ++r) Y.set_row(r, query_raw(U.row(r)));
    return Y;
}

tensor::Vector Oracle::query_power_batch(const tensor::Matrix& U) {
    tensor::Vector p(U.rows(), 0.0);
    for (std::size_t r = 0; r < U.rows(); ++r) p[r] = query_power(U.row(r));
    return p;
}

sidechannel::TotalCurrentFn Oracle::power_measure_fn() {
    return [this](const tensor::Vector& v) { return query_power(v); };
}

// ---- CrossbarOracle ---------------------------------------------------------

CrossbarOracle::CrossbarOracle(xbar::CrossbarNetwork hardware)
    : hardware_(std::move(hardware)),
      weight_scale_(hardware_.crossbar().program().weight_scale) {}

CrossbarOracle::CrossbarOracle(CrossbarOracle&& other) noexcept
    : hardware_(std::move(other.hardware_)),
      weight_scale_(other.weight_scale_),
      pool_(other.pool_),
      layers_(std::move(other.layers_)),
      inference_count_(other.inference_count_.load(std::memory_order_relaxed)),
      power_count_(other.power_count_.load(std::memory_order_relaxed)),
      power_readings_(other.power_readings_.load(std::memory_order_relaxed)) {}

QueryCounters CrossbarOracle::counters() const {
    QueryCounters snapshot;
    snapshot.inference = inference_count_.load(std::memory_order_relaxed);
    snapshot.power = power_count_.load(std::memory_order_relaxed);
    return snapshot;
}

void CrossbarOracle::reset_counters() {
    inference_count_.store(0, std::memory_order_relaxed);
    power_count_.store(0, std::memory_order_relaxed);
}

void CrossbarOracle::set_power_obfuscation(std::vector<ObfuscationConfig> layers) {
    std::vector<PowerLayer> built;
    built.reserve(layers.size());
    for (const ObfuscationConfig& config : layers) {
        XS_EXPECTS(config.magnitude >= 0.0);
        PowerLayer layer{config, {}};
        if (config.kind == ObfuscationConfig::Kind::RandomDummy) {
            Rng rng(config.seed);
            layer.g_line = tensor::Vector::random_uniform(rng, inputs(), 0.0, config.magnitude);
        }
        built.push_back(std::move(layer));
    }
    layers_ = std::move(built);
}

double CrossbarOracle::obfuscate(double clean, const tensor::Vector& u, std::uint64_t k) const {
    double p = clean;
    for (const PowerLayer& layer : layers_) {
        switch (layer.config.kind) {
            case ObfuscationConfig::Kind::Dither:
                p += layer.config.magnitude * Rng::normal_at(layer.config.seed, k, 0);
                break;
            case ObfuscationConfig::Kind::UniformDummy:
                p += layer.config.magnitude * tensor::sum(u);
                break;
            case ObfuscationConfig::Kind::RandomDummy:
                p += tensor::dot(layer.g_line, u);
                break;
        }
    }
    return p;
}

int CrossbarOracle::query_label(const tensor::Vector& u) {
    XS_EXPECTS(u.size() == inputs());
    inference_count_.fetch_add(1, std::memory_order_relaxed);
    return hardware_.classify(u);
}

tensor::Vector CrossbarOracle::query_raw(const tensor::Vector& u) {
    XS_EXPECTS(u.size() == inputs());
    inference_count_.fetch_add(1, std::memory_order_relaxed);
    return hardware_.predict(u);
}

double CrossbarOracle::query_power(const tensor::Vector& u) {
    XS_EXPECTS(u.size() == inputs());
    power_count_.fetch_add(1, std::memory_order_relaxed);
    const double clean = hardware_.total_current(u) / weight_scale_;
    if (layers_.empty()) return clean;
    return obfuscate(clean, u, power_readings_.fetch_add(1, std::memory_order_relaxed));
}

std::vector<int> CrossbarOracle::query_labels(const tensor::Matrix& U) {
    XS_EXPECTS(U.cols() == inputs());
    inference_count_.fetch_add(U.rows(), std::memory_order_relaxed);
    return hardware_.classify_batch(U, pool_);
}

tensor::Matrix CrossbarOracle::query_raw_batch(const tensor::Matrix& U) {
    XS_EXPECTS(U.cols() == inputs());
    inference_count_.fetch_add(U.rows(), std::memory_order_relaxed);
    return hardware_.predict_batch(U, pool_);
}

tensor::Vector CrossbarOracle::query_power_batch(const tensor::Matrix& U) {
    XS_EXPECTS(U.cols() == inputs());
    power_count_.fetch_add(U.rows(), std::memory_order_relaxed);
    // Row r of the batched read equals the scalar read bit for bit
    // (crossbar.hpp), so only the layer terms go row by row.
    tensor::Vector p = hardware_.total_current_batch(U, pool_);
    p /= weight_scale_;
    if (!layers_.empty()) {
        const std::uint64_t k = power_readings_.fetch_add(U.rows(), std::memory_order_relaxed);
        for (std::size_t r = 0; r < U.rows(); ++r) p[r] = obfuscate(p[r], U.row(r), k + r);
    }
    return p;
}

}  // namespace xbarsec::core
