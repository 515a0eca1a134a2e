// Determinism suite for the batched crossbar measurement paths (PR 3).
//
// The counter-based read-noise stream and the row-stable kernels promise:
// same seed + same batch ⇒ bit-identical outputs, regardless of
//   * the ThreadPool size (none, 1, 4 workers),
//   * how the batch is split into sub-batches (processed in order), and
//   * whether rows are issued as scalar calls or one batched call,
// for noisy and noiseless configurations alike, ideal and non-ideal.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/tensor/ops.hpp"
#include "xbarsec/nn/network.hpp"
#include "xbarsec/xbar/crossbar.hpp"
#include "xbarsec/xbar/xbar_network.hpp"

namespace xbarsec::xbar {
namespace {

struct Shape {
    std::size_t rows;
    std::size_t cols;
};

DeviceSpec spec() {
    DeviceSpec s;
    s.g_on_max = 100e-6;
    return s;
}

Crossbar make(const Shape& shape, const NonIdealityConfig& nonideal, std::uint64_t seed) {
    Rng rng(seed);
    return Crossbar(map_weights(tensor::Matrix::random_normal(rng, shape.rows, shape.cols),
                                spec()),
                    nonideal);
}

tensor::Matrix batch_for(const Shape& shape, std::uint64_t seed, std::size_t rows = 100) {
    Rng rng(seed);
    return tensor::Matrix::random_uniform(rng, rows, shape.cols);
}

tensor::Matrix take_rows(const tensor::Matrix& V, std::size_t lo, std::size_t hi) {
    tensor::Matrix out(hi - lo, V.cols());
    for (std::size_t r = lo; r < hi; ++r) {
        const auto src = V.row_span(r);
        auto dst = out.row_span(r - lo);
        std::copy(src.begin(), src.end(), dst.begin());
    }
    return out;
}

/// The configurations the suite sweeps: noiseless and noisy, ideal and
/// with every fabric non-ideality engaged.
std::vector<NonIdealityConfig> configs() {
    std::vector<NonIdealityConfig> out;
    out.emplace_back();  // ideal, noiseless
    {
        NonIdealityConfig c;  // non-ideal, noiseless
        c.line_resistance = 50.0;
        c.stuck_on_fraction = 0.02;
        c.stuck_off_fraction = 0.02;
        out.push_back(c);
    }
    {
        NonIdealityConfig c;  // noisy ideal fabric
        c.read_noise_std = 0.05;
        out.push_back(c);
    }
    {
        NonIdealityConfig c;  // everything at once
        c.read_noise_std = 0.05;
        c.line_resistance = 50.0;
        c.stuck_on_fraction = 0.02;
        c.stuck_off_fraction = 0.02;
        out.push_back(c);
    }
    return out;
}

const Shape kShapes[] = {{10, 784}, {64, 8}};

TEST(NonIdealDeterminism, PoolSizeNeverChangesABit) {
    ThreadPool pool1(1);
    ThreadPool pool4(4);
    std::uint64_t seed = 1000;
    for (const Shape& shape : kShapes) {
        for (const NonIdealityConfig& c : configs()) {
            const tensor::Matrix V = batch_for(shape, seed + 1);
            const Crossbar serial = make(shape, c, seed);
            const Crossbar one = make(shape, c, seed);
            const Crossbar four = make(shape, c, seed);

            const tensor::Matrix out_serial = serial.output_currents_batch(V, nullptr);
            ASSERT_EQ(out_serial, one.output_currents_batch(V, &pool1));
            ASSERT_EQ(out_serial, four.output_currents_batch(V, &pool4));

            const tensor::Vector tot_serial = serial.total_current_batch(V, nullptr);
            ASSERT_EQ(tot_serial, one.total_current_batch(V, &pool1));
            ASSERT_EQ(tot_serial, four.total_current_batch(V, &pool4));
            ++seed;
        }
    }
}

TEST(NonIdealDeterminism, BatchSplitsReproduceTheUnsplitBatch) {
    std::uint64_t seed = 2000;
    for (const Shape& shape : kShapes) {
        for (const NonIdealityConfig& c : configs()) {
            const tensor::Matrix V = batch_for(shape, seed + 1);
            const Crossbar whole = make(shape, c, seed);
            const tensor::Matrix full = whole.output_currents_batch(V);
            const tensor::Vector full_tot = make(shape, c, seed).total_current_batch(V);

            for (const std::size_t step : {std::size_t{1}, std::size_t{3}, std::size_t{37},
                                           std::size_t{64}}) {
                const Crossbar split = make(shape, c, seed);
                const Crossbar split_tot = make(shape, c, seed);
                for (std::size_t lo = 0; lo < V.rows(); lo += step) {
                    const std::size_t hi = std::min(lo + step, V.rows());
                    const tensor::Matrix sub = take_rows(V, lo, hi);
                    const tensor::Matrix part = split.output_currents_batch(sub);
                    const tensor::Vector part_tot = split_tot.total_current_batch(sub);
                    for (std::size_t r = lo; r < hi; ++r) {
                        ASSERT_EQ(0, std::memcmp(part.row_span(r - lo).data(),
                                                 full.row_span(r).data(),
                                                 shape.rows * sizeof(double)))
                            << "split " << step << " row " << r;
                        const double a = part_tot[r - lo], b = full_tot[r];
                        ASSERT_EQ(0, std::memcmp(&a, &b, sizeof(double)))
                            << "split " << step << " row " << r;
                    }
                }
            }
            ++seed;
        }
    }
}

TEST(NonIdealDeterminism, ScalarCallsEqualBatchRows) {
    std::uint64_t seed = 3000;
    for (const Shape& shape : kShapes) {
        for (const NonIdealityConfig& c : configs()) {
            const tensor::Matrix V = batch_for(shape, seed + 1, 17);
            const Crossbar batched = make(shape, c, seed);
            const Crossbar scalar = make(shape, c, seed);
            const Crossbar batched_tot = make(shape, c, seed);
            const Crossbar scalar_tot = make(shape, c, seed);

            const tensor::Matrix out = batched.output_currents_batch(V);
            const tensor::Vector tot = batched_tot.total_current_batch(V);
            for (std::size_t r = 0; r < V.rows(); ++r) {
                const tensor::Vector row = scalar.output_currents(V.row(r));
                ASSERT_EQ(0, std::memcmp(row.data(), out.row_span(r).data(),
                                         shape.rows * sizeof(double)))
                    << "row " << r;
                const double t = scalar_tot.total_current(V.row(r));
                const double b = tot[r];
                ASSERT_EQ(0, std::memcmp(&t, &b, sizeof(double))) << "row " << r;
            }
            ++seed;
        }
    }
}

TEST(NonIdealDeterminism, NetworkScalarCallsEqualBatchRows) {
    // The network layer on top: predict/classify (one row, allocation-free)
    // against the predict_batch/classify_batch rows, bit for bit. Both
    // paths normalise by weight_scale with a division — a reciprocal
    // multiply on one side differs in the last bit on about half the rows,
    // enough to flip a near-tie label between a scalar and a batched query.
    std::uint64_t seed = 4000;
    for (const Shape& shape : kShapes) {
        for (const NonIdealityConfig& c : configs()) {
            for (const nn::Activation act : {nn::Activation::Linear, nn::Activation::Softmax}) {
                Rng rng(seed);
                nn::DenseLayer layer(shape.rows, shape.cols);
                layer.weights() = tensor::Matrix::random_normal(rng, shape.rows, shape.cols);
                const nn::SingleLayerNet net(std::move(layer), act,
                                             act == nn::Activation::Softmax
                                                 ? nn::Loss::CategoricalCrossentropy
                                                 : nn::Loss::Mse);
                const tensor::Matrix V = batch_for(shape, seed + 1, 33);
                // One device per call sequence, so each side's measurement
                // counter (and so its noise) starts from the same place.
                const CrossbarNetwork predict_batched(net, spec(), c);
                const CrossbarNetwork predict_scalar(net, spec(), c);
                const CrossbarNetwork classify_batched(net, spec(), c);
                const CrossbarNetwork classify_scalar(net, spec(), c);
                const Crossbar mvm_batched(map_weights(net.weights(), spec()), c);
                const Crossbar mvm_scalar(map_weights(net.weights(), spec()), c);

                const tensor::Matrix P = predict_batched.predict_batch(V);
                const std::vector<int> labels = classify_batched.classify_batch(V);
                const tensor::Matrix S = mvm_batched.mvm_batch(V);
                for (std::size_t r = 0; r < V.rows(); ++r) {
                    const tensor::Vector p = predict_scalar.predict(V.row(r));
                    ASSERT_EQ(0, std::memcmp(p.data(), P.row_span(r).data(),
                                             shape.rows * sizeof(double)))
                        << nn::to_string(act) << " predict row " << r;
                    ASSERT_EQ(classify_scalar.classify(V.row_span(r)), labels[r])
                        << nn::to_string(act) << " classify row " << r;
                    const tensor::Vector s = mvm_scalar.mvm(V.row(r));
                    ASSERT_EQ(0, std::memcmp(s.data(), S.row_span(r).data(),
                                             shape.rows * sizeof(double)))
                        << "mvm row " << r;
                }
                ++seed;
            }
        }
    }
}

TEST(NonIdealDeterminism, StreamedLineCurrentsEqualTheStoredVector) {
    // visit_input_line_currents (the detector's allocation-free pass)
    // against input_line_currents on a twin device, bit for bit — with
    // undriven lines of both zero signs in the input.
    std::uint64_t seed = 5000;
    for (const NonIdealityConfig& c : configs()) {
        const Crossbar streamed = make({10, 784}, c, seed);
        const Crossbar stored = make({10, 784}, c, seed);
        tensor::Matrix V = batch_for({10, 784}, seed + 1, 9);
        for (std::size_t r = 0; r < V.rows(); ++r) {
            auto row = V.row_span(r);
            for (std::size_t j = r; j < row.size(); j += 3) row[j] = (j % 2 == 0) ? 0.0 : -0.0;
        }
        for (std::size_t r = 0; r < V.rows(); ++r) {
            const tensor::Vector expected = stored.input_line_currents(V.row(r));
            std::vector<double> got(784, 1.0);
            streamed.visit_input_line_currents(V.row_span(r),
                                               [&](std::size_t j, double i_j) { got[j] = i_j; });
            ASSERT_EQ(0, std::memcmp(got.data(), expected.data(), 784 * sizeof(double)))
                << "row " << r;
            ASSERT_EQ(streamed.measurement_count(), stored.measurement_count());
        }
        ++seed;
    }
}

TEST(NonIdealDeterminism, RepeatedMeasurementsDrawFreshNoise) {
    // Freshness survives the counter-based redesign: the measurement index
    // advances, so re-reading an input gives a different (but replayable)
    // value.
    NonIdealityConfig c;
    c.read_noise_std = 0.05;
    const Crossbar xbar = make({10, 784}, c, 42);
    const tensor::Matrix V = batch_for({10, 784}, 43, 4);
    const tensor::Vector first = xbar.total_current_batch(V);
    const tensor::Vector second = xbar.total_current_batch(V);
    for (std::size_t r = 0; r < V.rows(); ++r) EXPECT_NE(first[r], second[r]);

    // ...and a rebuilt crossbar replays the stream from the start.
    const Crossbar replay = make({10, 784}, c, 42);
    ASSERT_EQ(first, replay.total_current_batch(V));
}

TEST(NonIdealDeterminism, RowwiseDotIsRowStable) {
    // The batched power kernel's contract, checked directly: per-row dots
    // equal scalar dot() bitwise for any batch subdivision and pool size.
    ThreadPool pool(4);
    Rng rng(9);
    const tensor::Matrix V = tensor::Matrix::random_normal(rng, 257, 784);
    const tensor::Vector g = tensor::Vector::random_uniform(rng, 784);
    const tensor::Vector full = tensor::rowwise_dot(V, g);
    ASSERT_EQ(full, tensor::rowwise_dot(V, g, &pool));
    for (std::size_t r = 0; r < V.rows(); ++r) {
        const double d = tensor::dot(V.row(r), g);
        const double b = full[r];
        ASSERT_EQ(0, std::memcmp(&d, &b, sizeof(double))) << "row " << r;
    }
}

}  // namespace
}  // namespace xbarsec::xbar
