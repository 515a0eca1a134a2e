// Tests for the polymorphic Oracle API: batched-vs-scalar equivalence,
// thread-pool batching, atomic counter accounting, and the crossbar's
// power obfuscation (batched == scalar bit for bit, one dither ordinal
// per reading under concurrency). The per-client policies (budget,
// detector, sensing noise) live on service sessions and are tested in
// test_service.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

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

nn::SingleLayerNet make_net(Rng& rng, std::size_t in = 24, std::size_t out = 5) {
    return nn::SingleLayerNet(rng, in, out, nn::Activation::Linear, nn::Loss::Mse);
}

CrossbarOracle make_oracle(const nn::SingleLayerNet& net, xbar::NonIdealityConfig nonideal = {}) {
    return CrossbarOracle(xbar::CrossbarNetwork(net, ideal_spec(), nonideal));
}

tensor::Matrix random_batch(Rng& rng, std::size_t rows, std::size_t cols) {
    return tensor::Matrix::random_uniform(rng, rows, cols);
}

// ---- batched vs scalar equivalence ------------------------------------------

TEST(OracleBatch, LabelsMatchScalarQueries) {
    Rng rng(1);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle batched = make_oracle(net);
    CrossbarOracle scalar = make_oracle(net);
    const tensor::Matrix U = random_batch(rng, 50, net.inputs());

    const std::vector<int> batch_labels = batched.query_labels(U);
    for (std::size_t r = 0; r < U.rows(); ++r) {
        EXPECT_EQ(batch_labels[r], scalar.query_label(U.row(r)));
    }
}

TEST(OracleBatch, RawAndPowerMatchScalarWithin1e12) {
    Rng rng(2);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle oracle = make_oracle(net);
    const tensor::Matrix U = random_batch(rng, 40, net.inputs());

    const tensor::Matrix raw = oracle.query_raw_batch(U);
    const tensor::Vector power = oracle.query_power_batch(U);
    for (std::size_t r = 0; r < U.rows(); ++r) {
        const tensor::Vector y = oracle.query_raw(U.row(r));
        for (std::size_t c = 0; c < y.size(); ++c) EXPECT_NEAR(raw(r, c), y[c], 1e-12);
        EXPECT_NEAR(power[r], oracle.query_power(U.row(r)), 1e-12);
    }
}

TEST(OracleBatch, NoisyHardwareConsumesTheSameStreamBatchedOrScalar) {
    Rng rng(3);
    const nn::SingleLayerNet net = make_net(rng);
    xbar::NonIdealityConfig noisy;
    noisy.read_noise_std = 0.05;
    CrossbarOracle batched = make_oracle(net, noisy);
    CrossbarOracle scalar = make_oracle(net, noisy);
    const tensor::Matrix U = random_batch(rng, 16, net.inputs());

    const tensor::Vector batch_power = batched.query_power_batch(U);
    for (std::size_t r = 0; r < U.rows(); ++r) {
        // Same seed, same draw order: readings agree to FP re-association.
        const double rel = std::abs(batch_power[r] - scalar.query_power(U.row(r))) /
                           std::abs(batch_power[r]);
        EXPECT_LT(rel, 1e-10);
    }
}

TEST(OracleBatch, ThreadPoolBatchingIsDeterministic) {
    Rng rng(4);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle serial = make_oracle(net);
    CrossbarOracle pooled = make_oracle(net);
    ThreadPool pool(2);
    pooled.set_thread_pool(&pool);
    const tensor::Matrix U = random_batch(rng, 300, net.inputs());

    EXPECT_EQ(serial.query_labels(U), pooled.query_labels(U));
    const tensor::Vector a = serial.query_power_batch(U);
    const tensor::Vector b = pooled.query_power_batch(U);
    for (std::size_t r = 0; r < a.size(); ++r) EXPECT_DOUBLE_EQ(a[r], b[r]);
}

TEST(OracleBatch, IrDropFallbackMatchesScalarPath) {
    Rng rng(5);
    const nn::SingleLayerNet net = make_net(rng);
    xbar::NonIdealityConfig nonideal;
    nonideal.line_resistance = 10.0;
    CrossbarOracle batched = make_oracle(net, nonideal);
    CrossbarOracle scalar = make_oracle(net, nonideal);
    const tensor::Matrix U = random_batch(rng, 8, net.inputs());

    const std::vector<int> labels = batched.query_labels(U);
    const tensor::Vector power = batched.query_power_batch(U);
    for (std::size_t r = 0; r < U.rows(); ++r) {
        EXPECT_EQ(labels[r], scalar.query_label(U.row(r)));
        EXPECT_NEAR(power[r], scalar.query_power(U.row(r)), 1e-12);
    }
}

// ---- counters ---------------------------------------------------------------

TEST(OracleCounters, BatchedQueriesCountPerRow) {
    Rng rng(8);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle oracle = make_oracle(net);
    const tensor::Matrix U = random_batch(rng, 17, net.inputs());
    oracle.query_labels(U);
    oracle.query_raw_batch(U);
    oracle.query_power_batch(U);
    EXPECT_EQ(oracle.counters().inference, 34u);
    EXPECT_EQ(oracle.counters().power, 17u);
    EXPECT_EQ(oracle.counters().total(), 51u);
}

TEST(OracleCounters, ConcurrentQueriesAreCountedExactly) {
    Rng rng(9);
    CrossbarOracle oracle = make_oracle(make_net(rng));
    const tensor::Vector u(oracle.inputs(), 0.25);
    ThreadPool pool(4);
    parallel_for(pool, 200, [&](std::size_t i) {
        // The crossbar reserves each read's measurement atomically, so
        // concurrent queries are safe; the counters must still be exact.
        (void)oracle.query_label(u);
        if (i % 2 == 0) (void)oracle.query_power(u);
    });
    EXPECT_EQ(oracle.counters().inference, 200u);
    EXPECT_EQ(oracle.counters().power, 100u);
}

// ---- power obfuscation ------------------------------------------------------

TEST(PowerObfuscation, LayersAddTheirTermsInListOrderAndCountOneRead) {
    Rng rng(10);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    const tensor::Vector u = tensor::Vector::random_uniform(rng, net.inputs());
    const double clean = backend.query_power(u);

    ObfuscationConfig dummies;
    dummies.kind = ObfuscationConfig::Kind::UniformDummy;
    dummies.magnitude = 0.125;
    ObfuscationConfig dither;
    dither.kind = ObfuscationConfig::Kind::Dither;
    dither.magnitude = 0.5;
    dither.seed = 21;
    backend.set_power_obfuscation({dummies, dither});
    backend.reset_counters();

    // The first obfuscated reading is ordinal 0 of the dither stream.
    const double expected = (clean + 0.125 * tensor::sum(u)) + 0.5 * Rng::normal_at(21, 0, 0);
    EXPECT_EQ(backend.query_power(u), expected);
    EXPECT_EQ(backend.counters().power, 1u);

    // A probe through the layered device: one physical read per column.
    const auto probe = probe_columns(backend);
    EXPECT_EQ(probe.queries, backend.inputs());
    EXPECT_EQ(backend.counters().power, 1 + backend.inputs());
}

TEST(PowerObfuscation, UniformDummyShiftsPowerByLoadTimesInputSum) {
    Rng rng(11);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    const tensor::Vector u = tensor::Vector::random_uniform(rng, net.inputs());
    const double clean = backend.query_power(u);
    ObfuscationConfig config;
    config.kind = ObfuscationConfig::Kind::UniformDummy;
    config.magnitude = 0.125;
    backend.set_power_obfuscation({config});
    EXPECT_NEAR(backend.query_power(u), clean + 0.125 * tensor::sum(u), 1e-9);
}

TEST(PowerObfuscation, AnEmptyListReadsClean) {
    Rng rng(12);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle clean = make_oracle(net);
    CrossbarOracle cleared = make_oracle(net);
    ObfuscationConfig dither;
    dither.magnitude = 1.0;
    cleared.set_power_obfuscation({dither});
    cleared.set_power_obfuscation({});
    const tensor::Matrix U = random_batch(rng, 6, net.inputs());
    const tensor::Vector a = clean.query_power_batch(U);
    const tensor::Vector b = cleared.query_power_batch(U);
    for (std::size_t r = 0; r < U.rows(); ++r) {
        EXPECT_EQ(a[r], b[r]);
        EXPECT_EQ(cleared.query_power(U.row(r)), clean.query_power(U.row(r)));
    }
}

TEST(PowerObfuscation, BatchedReadsEqualScalarReadsBitForBit) {
    Rng rng(13);
    const nn::SingleLayerNet net = make_net(rng);
    xbar::NonIdealityConfig noisy;
    noisy.read_noise_std = 0.05;
    CrossbarOracle batched = make_oracle(net, noisy);
    CrossbarOracle scalar = make_oracle(net, noisy);
    ObfuscationConfig dummies;
    dummies.kind = ObfuscationConfig::Kind::RandomDummy;
    dummies.magnitude = 0.75;
    dummies.seed = 3;
    ObfuscationConfig dither;
    dither.kind = ObfuscationConfig::Kind::Dither;
    dither.magnitude = 0.25;
    dither.seed = 5;
    batched.set_power_obfuscation({dummies, dither});
    scalar.set_power_obfuscation({dummies, dither});
    ThreadPool pool(2);
    batched.set_thread_pool(&pool);
    const tensor::Matrix U = random_batch(rng, 300, net.inputs());

    // Two batches, so the second starts mid-stream on both the crossbar's
    // measurement counter and the dither ordinal.
    const tensor::Vector head = batched.query_power_batch(U);
    const tensor::Vector tail = batched.query_power_batch(U);
    for (std::size_t r = 0; r < U.rows(); ++r) {
        EXPECT_EQ(head[r], scalar.query_power(U.row(r))) << "row " << r;
    }
    for (std::size_t r = 0; r < U.rows(); ++r) {
        EXPECT_EQ(tail[r], scalar.query_power(U.row(r))) << "row " << r;
    }
}

TEST(PowerObfuscation, ConcurrentReadsUseEachDitherOrdinalOnce) {
    Rng rng(14);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle concurrent = make_oracle(net);
    CrossbarOracle serial = make_oracle(net);
    ObfuscationConfig dither;
    dither.kind = ObfuscationConfig::Kind::Dither;
    dither.magnitude = 0.5;
    dither.seed = 17;
    concurrent.set_power_obfuscation({dither});
    serial.set_power_obfuscation({dither});
    const tensor::Vector u = tensor::Vector::random_uniform(rng, net.inputs());
    tensor::Matrix U1(1, net.inputs());
    U1.set_row(0, u);

    constexpr std::size_t kReads = 400;
    std::vector<double> readings(kReads);
    ThreadPool pool(4);
    parallel_for(pool, kReads, [&](std::size_t i) {
        readings[i] = i % 2 == 0 ? concurrent.query_power(u) : concurrent.query_power_batch(U1)[0];
    });
    std::vector<double> expected(kReads);
    for (double& e : expected) e = serial.query_power(u);

    std::sort(readings.begin(), readings.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(readings, expected);
    EXPECT_EQ(concurrent.counters().power, kReads);
}

}  // namespace
}  // namespace xbarsec::core
