// Power-obfuscation countermeasure tests: each layer set on a
// CrossbarOracle, read in weight units through the oracle's power channel.
#include <gtest/gtest.h>

#include <cmath>

#include "xbarsec/core/oracle.hpp"
#include "xbarsec/core/queries.hpp"
#include "xbarsec/stats/descriptive.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::core {
namespace {

using Kind = ObfuscationConfig::Kind;

CrossbarOracle make_oracle(Rng& rng, std::size_t rows, std::size_t cols) {
    xbar::DeviceSpec spec;
    spec.g_on_max = 100e-6;
    const nn::SingleLayerNet net(rng, cols, rows, nn::Activation::Linear, nn::Loss::Mse);
    return CrossbarOracle(xbar::CrossbarNetwork(net, spec));
}

/// The undefended column estimates (weight units), read before any layer
/// is set.
tensor::Vector clean_columns(CrossbarOracle& oracle) {
    return probe_columns(oracle).conductance_sums;
}

TEST(Dither, AddsZeroMeanNoiseOfConfiguredScale) {
    Rng rng(1);
    CrossbarOracle oracle = make_oracle(rng, 6, 4);
    const tensor::Vector u(4, 1.0);
    const double truth = oracle.query_power(u);
    const double sigma = 0.2 * std::abs(truth);
    oracle.set_power_obfuscation({{Kind::Dither, sigma, 7}});
    std::vector<double> readings(500);
    for (auto& r : readings) r = oracle.query_power(u);
    const stats::Summary s = stats::summarize(readings);
    EXPECT_NEAR(s.mean, truth, 0.05 * std::abs(truth));
    EXPECT_NEAR(s.stddev, sigma, 0.2 * sigma);
}

TEST(Dither, DegradesSingleProbeButAveragingRecovers) {
    Rng rng(2);
    CrossbarOracle oracle = make_oracle(rng, 8, 10);
    const tensor::Vector truth = clean_columns(oracle);
    oracle.set_power_obfuscation({{Kind::Dither, 0.3 * tensor::max(truth), 11}});
    sidechannel::ProbeOptions one;
    one.repeats = 1;
    sidechannel::ProbeOptions many;
    many.repeats = 100;
    const double err_one =
        sidechannel::relative_error(probe_columns(oracle, one).conductance_sums, truth);
    const double err_many =
        sidechannel::relative_error(probe_columns(oracle, many).conductance_sums, truth);
    EXPECT_GT(err_one, err_many);
    EXPECT_LT(err_many, 0.1) << "dithering alone is defeated by averaging";
}

TEST(UniformDummy, ShiftsEstimatesButPreservesRanking) {
    // The key negative result: identical dummies on every line cannot hide
    // the 1-norm *ranking* — basis probes all gain the same offset.
    Rng rng(3);
    CrossbarOracle oracle = make_oracle(rng, 6, 12);
    const tensor::Vector truth = clean_columns(oracle);
    oracle.set_power_obfuscation({{Kind::UniformDummy, 0.5}});
    const sidechannel::ProbeResult r = probe_columns(oracle);
    for (std::size_t j = 0; j < 12; ++j) {
        EXPECT_NEAR(r.conductance_sums[j] - truth[j], 0.5, 1e-9) << "uniform offset expected";
    }
    EXPECT_EQ(tensor::argmax(r.conductance_sums), tensor::argmax(truth));
    EXPECT_DOUBLE_EQ(sidechannel::topk_agreement(r.conductance_sums, truth, 6), 1.0);
}

TEST(RandomDummy, CorruptsPerColumnEstimates) {
    Rng rng(4);
    CrossbarOracle oracle = make_oracle(rng, 6, 12);
    const tensor::Vector truth = clean_columns(oracle);
    const double spread = tensor::max(truth);  // dummies comparable to signal
    oracle.set_power_obfuscation({{Kind::RandomDummy, spread, 13}});
    const sidechannel::ProbeResult r = probe_columns(oracle);
    // Estimates deviate column-dependently...
    double min_dev = 1e300, max_dev = 0.0;
    for (std::size_t j = 0; j < 12; ++j) {
        const double dev = r.conductance_sums[j] - truth[j];
        min_dev = std::min(min_dev, dev);
        max_dev = std::max(max_dev, dev);
        EXPECT_GE(dev, -1e-12);  // dummy loads only add current
    }
    EXPECT_GT(max_dev - min_dev, 0.1 * spread) << "random dummies must vary per line";
    // ...and averaging does NOT remove them (they are static, not noise).
    sidechannel::ProbeOptions many;
    many.repeats = 50;
    const sidechannel::ProbeResult averaged = probe_columns(oracle, many);
    EXPECT_GT(sidechannel::relative_error(averaged.conductance_sums, truth), 0.05);
}

TEST(Obfuscation, Validation) {
    Rng rng(6);
    CrossbarOracle oracle = make_oracle(rng, 2, 2);
    for (const Kind kind : {Kind::Dither, Kind::UniformDummy, Kind::RandomDummy}) {
        EXPECT_THROW(oracle.set_power_obfuscation({{kind, -1.0}}), ContractViolation);
    }
}

}  // namespace
}  // namespace xbarsec::core
