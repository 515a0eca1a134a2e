// CrossbarOracle and query-collection tests: counters and the
// normalisation of the power channel.
#include <gtest/gtest.h>

#include "xbarsec/core/oracle.hpp"
#include "xbarsec/core/queries.hpp"
#include "xbarsec/data/synthetic_mnist.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::core {
namespace {

xbar::DeviceSpec ideal_spec() {
    xbar::DeviceSpec s;
    s.g_on_max = 100e-6;
    return s;
}

nn::SingleLayerNet make_net(Rng& rng, std::size_t in = 8, std::size_t out = 3) {
    return nn::SingleLayerNet(rng, in, out, nn::Activation::Linear, nn::Loss::Mse);
}

CrossbarOracle make_oracle(const nn::SingleLayerNet& net) {
    return CrossbarOracle(xbar::CrossbarNetwork(net, ideal_spec()));
}

TEST(Oracle, LabelQueryMatchesSoftwareNet) {
    Rng rng(1);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle oracle = make_oracle(net);
    for (int trial = 0; trial < 10; ++trial) {
        const tensor::Vector u = tensor::Vector::random_uniform(rng, 8);
        EXPECT_EQ(oracle.query_label(u), net.classify(u));
    }
}

TEST(Oracle, RawQueryMatchesSoftwareNet) {
    Rng rng(2);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle oracle = make_oracle(net);
    const tensor::Vector u = tensor::Vector::random_uniform(rng, 8);
    const tensor::Vector y = oracle.query_raw(u);
    const tensor::Vector expected = net.predict(u);
    for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], expected[i], 1e-9);
}

TEST(Oracle, PowerQueryIsInWeightUnits) {
    // For a basis input the normalised power reading equals the column
    // 1-norm of the oracle's weights (ideal devices, g_off = 0).
    Rng rng(3);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle oracle = make_oracle(net);
    const tensor::Vector l1 = tensor::column_abs_sums(net.weights());
    for (std::size_t j = 0; j < 8; ++j) {
        EXPECT_NEAR(oracle.query_power(tensor::Vector::basis(8, j)), l1[j], 1e-9);
    }
}

TEST(Oracle, CountersTrackQueries) {
    Rng rng(5);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle oracle = make_oracle(net);
    const tensor::Vector u(8, 0.5);
    oracle.query_label(u);
    oracle.query_raw(u);
    oracle.query_power(u);
    oracle.query_power(u);
    EXPECT_EQ(oracle.counters().inference, 2u);
    EXPECT_EQ(oracle.counters().power, 2u);
    oracle.reset_counters();
    EXPECT_EQ(oracle.counters().inference, 0u);
}

TEST(Oracle, PowerMeasureFnWorksWithProbe) {
    Rng rng(6);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle oracle = make_oracle(net);
    const auto probe = sidechannel::probe_columns(oracle.power_measure_fn(), 8);
    const tensor::Vector l1 = tensor::column_abs_sums(net.weights());
    for (std::size_t j = 0; j < 8; ++j) EXPECT_NEAR(probe.conductance_sums[j], l1[j], 1e-9);
    EXPECT_EQ(oracle.counters().power, 8u);
}

TEST(Oracle, InputSizeValidated) {
    Rng rng(7);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle oracle = make_oracle(net);
    EXPECT_THROW(oracle.query_label(tensor::Vector(5, 0.1)), ContractViolation);
}

data::Dataset small_pool(Rng& rng, std::size_t n = 20, std::size_t dim = 8) {
    tensor::Matrix inputs = tensor::Matrix::random_uniform(rng, n, dim);
    std::vector<int> labels(n);
    for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 3);
    return data::Dataset(std::move(inputs), std::move(labels), 3, data::ImageShape{1, dim, 1});
}

TEST(CollectQueries, RawOutputsRecordOracleVectors) {
    Rng rng(8);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle oracle = make_oracle(net);
    const data::Dataset pool = small_pool(rng);
    QueryPlan plan;
    plan.count = 10;
    plan.raw_outputs = true;
    const attack::QueryDataset q = collect_queries(oracle, pool, plan);
    EXPECT_EQ(q.size(), 10u);
    EXPECT_EQ(q.outputs.cols(), 3u);
    EXPECT_EQ(oracle.counters().inference, 10u);
    EXPECT_EQ(oracle.counters().power, 10u);
    // Outputs are the oracle's raw responses for the recorded inputs.
    for (std::size_t r = 0; r < 3; ++r) {
        const tensor::Vector y = net.predict(q.inputs.row(r));
        for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(q.outputs(r, c), y[c], 1e-9);
    }
}

TEST(CollectQueries, LabelOnlyRecordsOneHot) {
    Rng rng(9);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle oracle = make_oracle(net);
    const data::Dataset pool = small_pool(rng);
    QueryPlan plan;
    plan.count = 12;
    plan.raw_outputs = false;
    const attack::QueryDataset q = collect_queries(oracle, pool, plan);
    for (std::size_t r = 0; r < q.size(); ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_TRUE(q.outputs(r, c) == 0.0 || q.outputs(r, c) == 1.0);
            sum += q.outputs(r, c);
        }
        EXPECT_DOUBLE_EQ(sum, 1.0);
        // The hot entry is the oracle's label for that input.
        EXPECT_DOUBLE_EQ(
            q.outputs(r, static_cast<std::size_t>(net.classify(q.inputs.row(r)))), 1.0);
    }
}

TEST(CollectQueries, PowerChannelMatchesSurrogateIdentity) {
    // q.power for an ideal oracle equals Σ_j u_j·‖W[:,j]‖₁, i.e. the same
    // functional form the surrogate's power model uses — Eq. 9's two
    // sides are in the same units.
    Rng rng(10);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle oracle = make_oracle(net);
    const data::Dataset pool = small_pool(rng);
    QueryPlan plan;
    plan.count = 6;
    const attack::QueryDataset q = collect_queries(oracle, pool, plan);
    const tensor::Vector expected = attack::surrogate_power_batch(net.weights(), q.inputs);
    for (std::size_t r = 0; r < q.size(); ++r) EXPECT_NEAR(q.power[r], expected[r], 1e-9);
}

TEST(CollectQueries, OversizedDrawsReuseThePool) {
    Rng rng(11);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle oracle = make_oracle(net);
    const data::Dataset pool = small_pool(rng, 5);
    QueryPlan plan;
    plan.count = 40;  // > pool size ⇒ with-replacement tail
    const attack::QueryDataset q = collect_queries(oracle, pool, plan);
    EXPECT_EQ(q.size(), 40u);
}

TEST(CollectQueries, DeterministicPerSeed) {
    Rng rng(12);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle o1 = make_oracle(net);
    CrossbarOracle o2 = make_oracle(net);
    const data::Dataset pool = small_pool(rng);
    QueryPlan plan;
    plan.count = 7;
    plan.seed = 5;
    const attack::QueryDataset a = collect_queries(o1, pool, plan);
    const attack::QueryDataset b = collect_queries(o2, pool, plan);
    EXPECT_EQ(a.inputs, b.inputs);
    plan.seed = 6;
    const attack::QueryDataset c = collect_queries(o2, pool, plan);
    EXPECT_NE(a.inputs, c.inputs);
}

}  // namespace
}  // namespace xbarsec::core
