// Current-signature detector tests (the DetectX-style defense baseline).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <utility>

#include "xbarsec/attack/fgsm.hpp"
#include "xbarsec/attack/single_pixel.hpp"
#include "xbarsec/core/policy.hpp"
#include "xbarsec/core/victim.hpp"
#include "xbarsec/data/synthetic_mnist.hpp"
#include "xbarsec/sidechannel/detector.hpp"
#include "xbarsec/sidechannel/probe.hpp"
#include "xbarsec/tensor/ops.hpp"

// Counts heap allocations so the default-mode score can be pinned
// allocation-free.
#include "alloc_counter.hpp"

namespace xbarsec::sidechannel {
namespace {

class DetectorFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        data::SyntheticMnistConfig dc;
        dc.train_count = 1200;
        dc.test_count = 400;
        split_ = new data::DataSplit(data::make_synthetic_mnist(dc));
        core::VictimConfig config =
            core::VictimConfig::defaults(core::OutputConfig::softmax_ce());
        config.train.epochs = 10;
        victim_ = new core::TrainedVictim(core::train_victim(*split_, config));
        hardware_ = new xbar::CrossbarNetwork(victim_->net, config.device, config.nonideal);
        detector_ = new CurrentSignatureDetector(*hardware_, split_->train.take(600));
    }

    static void TearDownTestSuite() {
        delete detector_;
        delete hardware_;
        delete victim_;
        delete split_;
        detector_ = nullptr;
        hardware_ = nullptr;
        victim_ = nullptr;
        split_ = nullptr;
    }

    static data::DataSplit* split_;
    static core::TrainedVictim* victim_;
    static xbar::CrossbarNetwork* hardware_;
    static CurrentSignatureDetector* detector_;
};

data::DataSplit* DetectorFixture::split_ = nullptr;
core::TrainedVictim* DetectorFixture::victim_ = nullptr;
xbar::CrossbarNetwork* DetectorFixture::hardware_ = nullptr;
CurrentSignatureDetector* DetectorFixture::detector_ = nullptr;

TEST_F(DetectorFixture, LowFalsePositiveRateOnCleanData) {
    const double fpr = detector_->flagged_fraction(split_->test.inputs());
    EXPECT_LT(fpr, 0.05) << "clean held-out inputs should rarely be flagged";
}

TEST_F(DetectorFixture, CatchesStrongSinglePixelAttacks) {
    // A strength-8 single-pixel hit moves i_total by ~8·G_j — far outside
    // the clean class-conditional band.
    const tensor::Vector l1 =
        probe_columns([this_hw = hardware_](const tensor::Vector& v) {
            return this_hw->total_current(v);
        }, hardware_->inputs()).conductance_sums;
    Rng rng(3);
    std::size_t caught = 0;
    const std::size_t n = 150;
    for (std::size_t i = 0; i < n; ++i) {
        const tensor::Vector adv = attack::attack_single_pixel(
            attack::SinglePixelMethod::PowerAdd, split_->test.input(i), split_->test.target(i),
            8.0, &l1, nullptr, rng);
        if (detector_->is_adversarial(adv)) ++caught;
    }
    EXPECT_GT(static_cast<double>(caught) / static_cast<double>(n), 0.9);
}

TEST_F(DetectorFixture, SmallFgsmPerturbationsMostlyEvade) {
    // ±0.03 FGSM noise barely moves the aggregate current: the detector is
    // a narrow defense, which is exactly what the DetectX line observes.
    const data::Dataset eval = split_->test.take(150);
    const nn::SingleLayerNet& net = victim_->net;
    const tensor::Matrix adv = attack::fgsm_attack_batch(
        net, eval.inputs(), eval.labels(), eval.num_classes(), 0.03);
    const double flagged = detector_->flagged_fraction(adv);
    EXPECT_LT(flagged, 0.5);
}

TEST_F(DetectorFixture, StrongPerturbationRaisesAnomalyScores) {
    // Per-sample scores are not strictly monotone in strength (the attack
    // can flip the predicted class and change the profile being compared
    // against), but in aggregate a strength-8 hit must stand far outside
    // the clean band.
    const tensor::Vector l1 = tensor::column_abs_sums(victim_->net.weights());
    Rng rng(4);
    double clean_score = 0.0, adv_score = 0.0;
    const std::size_t n = 60;
    for (std::size_t i = 0; i < n; ++i) {
        const tensor::Vector u = split_->test.input(i);
        const tensor::Vector t = split_->test.target(i);
        clean_score += detector_->anomaly_score(u);
        const tensor::Vector adv = attack::attack_single_pixel(
            attack::SinglePixelMethod::PowerAdd, u, t, 8.0, &l1, nullptr, rng);
        adv_score += detector_->anomaly_score(adv);
    }
    EXPECT_GT(adv_score, 3.0 * clean_score);
}

TEST_F(DetectorFixture, ScalarTotalCurrentModeIsMuchWeaker) {
    // Negative result worth pinning: the scalar supply-current signature
    // barely sees a single-pixel hit (~1-2 sigma of the clean ink-amount
    // spread), while the per-line mode catches it. This is why DetectX
    // uses fine-grained signatures.
    DetectorConfig scalar;
    scalar.mode = SignatureMode::TotalCurrent;
    const CurrentSignatureDetector weak(*hardware_, split_->train.take(600), scalar);
    const tensor::Vector l1 = tensor::column_abs_sums(victim_->net.weights());
    Rng rng(5);
    const std::size_t n = 100;
    tensor::Matrix adv(n, split_->test.input_dim());
    for (std::size_t i = 0; i < n; ++i) {
        const tensor::Vector a = attack::attack_single_pixel(
            attack::SinglePixelMethod::PowerAdd, split_->test.input(i), split_->test.target(i),
            8.0, &l1, nullptr, rng);
        auto dst = adv.row_span(i);
        std::copy(a.begin(), a.end(), dst.begin());
    }
    const double weak_rate = weak.flagged_fraction(adv);
    const double strong_rate = detector_->flagged_fraction(adv);
    EXPECT_LT(weak_rate, strong_rate);
    EXPECT_LT(weak_rate, 0.5);
}

TEST_F(DetectorFixture, ThresholdTradesFalsePositivesForDetection) {
    DetectorConfig loose;
    loose.z_threshold = 1e6;  // manual override, effectively never flags
    DetectorConfig tight;
    tight.z_threshold = 1e-9;  // flag any envelope exceedance at all
    const CurrentSignatureDetector detector_loose(*hardware_, split_->train.take(600), loose);
    const CurrentSignatureDetector detector_tight(*hardware_, split_->train.take(600), tight);
    const double fpr_loose = detector_loose.flagged_fraction(split_->test.inputs());
    const double fpr_tight = detector_tight.flagged_fraction(split_->test.inputs());
    EXPECT_LE(fpr_loose, fpr_tight);
    EXPECT_GT(fpr_tight, 0.05) << "flagging any exceedance must hit many clean inputs";
    EXPECT_DOUBLE_EQ(detector_loose.threshold(), 1e6);
}

TEST_F(DetectorFixture, AutoCalibrationMeetsTheFprBudget) {
    DetectorConfig config;
    config.target_false_positive_rate = 0.10;
    const CurrentSignatureDetector d(*hardware_, split_->train.take(600), config);
    // Held-out clean FPR within a loose band around the budget.
    const double fpr = d.flagged_fraction(split_->test.inputs());
    EXPECT_LT(fpr, 0.25);
    EXPECT_GT(d.threshold(), 0.0);
}

/// Rows the screen equivalence tests score: clean held-out digits,
/// strength-8 single-pixel hits (flagged), and amplified-uniform probe
/// rows with exact zeros mixed in (undriven lines).
tensor::Matrix mixed_rows(const data::Dataset& test, const tensor::Vector& l1) {
    Rng rng(9);
    const std::size_t n = 48;
    tensor::Matrix rows(3 * n, test.input_dim());
    for (std::size_t i = 0; i < n; ++i) {
        const tensor::Vector clean = test.input(i);
        const tensor::Vector hit = attack::attack_single_pixel(
            attack::SinglePixelMethod::PowerAdd, clean, test.target(i), 8.0, &l1, nullptr, rng);
        auto probe = rows.row_span(2 * n + i);
        for (double& x : probe) x = rng.uniform() < 0.3 ? 0.0 : rng.uniform(0.0, 6.0);
        std::copy(clean.begin(), clean.end(), rows.row_span(i).begin());
        std::copy(hit.begin(), hit.end(), rows.row_span(n + i).begin());
    }
    return rows;
}

/// Twin deployments built and enrolled identically: each takes the same
/// measurements in the same order, so one scores through the fused path
/// and the other through the composed reference at equal noise coordinates.
struct Twins {
    xbar::CrossbarNetwork hw_a, hw_b;
    CurrentSignatureDetector fused, reference;
    Twins(const nn::SingleLayerNet& net, const xbar::DeviceSpec& spec,
          const xbar::NonIdealityConfig& nonideal, const data::Dataset& enrol)
        : hw_a(net, spec, nonideal),
          hw_b(net, spec, nonideal),
          fused(hw_a, enrol),
          reference(hw_b, enrol) {}
    // The detectors point at the sibling deployments.
    Twins(const Twins&) = delete;
    Twins& operator=(const Twins&) = delete;
};

std::vector<xbar::NonIdealityConfig> screen_devices() {
    xbar::NonIdealityConfig noisy;
    noisy.read_noise_std = 0.05;
    return {xbar::NonIdealityConfig{}, noisy};
}

TEST_F(DetectorFixture, FusedScoreEqualsComposedReferenceBitForBit) {
    const tensor::Vector l1 = tensor::column_abs_sums(victim_->net.weights());
    const tensor::Matrix rows = mixed_rows(split_->test, l1);
    const core::VictimConfig config = core::VictimConfig::defaults(core::OutputConfig::softmax_ce());
    for (const xbar::NonIdealityConfig& nonideal : screen_devices()) {
        Twins t(victim_->net, config.device, nonideal, split_->train.take(600));
        ASSERT_EQ(t.fused.threshold(), t.reference.threshold());
        std::size_t flagged = 0;
        for (std::size_t r = 0; r < rows.rows(); ++r) {
            const std::uint64_t before = t.hw_a.crossbar().measurement_count();
            ASSERT_EQ(before, t.hw_b.crossbar().measurement_count());
            const double fused = t.fused.anomaly_score(rows.row_span(r));
            const double reference = t.reference.anomaly_score_reference(rows.row(r));
            ASSERT_EQ(0, std::memcmp(&fused, &reference, sizeof(double)))
                << "row " << r << " noise " << nonideal.read_noise_std << ": " << fused
                << " vs " << reference;
            ASSERT_EQ(t.hw_a.crossbar().measurement_count(), before + 2) << "row " << r;
            if (fused > t.fused.threshold()) ++flagged;
        }
        // The mix exercises both verdicts.
        EXPECT_GT(flagged, 0u);
        EXPECT_LT(flagged, rows.rows());
    }
}

TEST_F(DetectorFixture, ScreenCountsAndRefusalMatchTheReference) {
    const tensor::Vector l1 = tensor::column_abs_sums(victim_->net.weights());
    const tensor::Matrix rows = mixed_rows(split_->test, l1);
    const core::VictimConfig config = core::VictimConfig::defaults(core::OutputConfig::softmax_ce());
    for (const xbar::NonIdealityConfig& nonideal : screen_devices()) {
        // Log-only: every row screened, flagged = reference verdicts.
        {
            Twins t(victim_->net, config.device, nonideal, split_->train.take(600));
            core::DetectorScreen screen(t.fused, /*block_flagged=*/false);
            const std::size_t flagged = screen.screen_batch(rows);
            std::size_t expected = 0;
            for (std::size_t r = 0; r < rows.rows(); ++r) {
                if (t.reference.anomaly_score_reference(rows.row(r)) > t.reference.threshold()) {
                    ++expected;
                }
            }
            EXPECT_EQ(flagged, expected);
            EXPECT_EQ(screen.screened(), rows.rows());
            EXPECT_EQ(screen.flagged(), expected);
            EXPECT_EQ(t.hw_a.crossbar().measurement_count(), t.hw_b.crossbar().measurement_count());
        }
        // Blocking: the first refused row is the reference's first flag.
        {
            Twins t(victim_->net, config.device, nonideal, split_->train.take(600));
            core::DetectorScreen screen(t.fused, /*block_flagged=*/true);
            std::size_t refused_at = rows.rows();
            for (std::size_t r = 0; r < rows.rows() && refused_at == rows.rows(); ++r) {
                try {
                    screen.screen(rows.row_span(r));
                } catch (const core::QueryRefused&) {
                    refused_at = r;
                }
            }
            std::size_t expected_at = rows.rows();
            for (std::size_t r = 0; r < rows.rows() && expected_at == rows.rows(); ++r) {
                if (t.reference.anomaly_score_reference(rows.row(r)) > t.reference.threshold()) {
                    expected_at = r;
                }
            }
            ASSERT_LT(expected_at, rows.rows());
            EXPECT_EQ(refused_at, expected_at);
            EXPECT_EQ(screen.screened(), expected_at + 1);
            EXPECT_EQ(screen.flagged(), 1u);
        }
    }
}

/// A small deployment whose line pairs tie: each (a, b) pair has equal
/// weight columns and equal enrolment pixels, so G_a = G_b and the two
/// lines share their envelopes. Equal pixels on a and b then exceed by
/// equal ratios, in different lanes of the envelope pass.
using Ties = std::vector<std::pair<std::size_t, std::size_t>>;

struct TiedDeployment {
    nn::SingleLayerNet net;
    data::Dataset enrol;

    TiedDeployment(std::size_t inputs, const Ties& ties)
        : net(make_net(inputs, ties)), enrol(make_enrol(inputs, ties)) {}

    static nn::SingleLayerNet make_net(std::size_t inputs, const Ties& ties) {
        Rng rng(inputs);
        nn::SingleLayerNet net(rng, inputs, 10, nn::Activation::Linear, nn::Loss::Mse);
        for (const auto& [a, b] : ties) {
            for (std::size_t i = 0; i < net.outputs(); ++i) {
                net.weights()(i, b) = net.weights()(i, a);
            }
        }
        return net;
    }
    static data::Dataset make_enrol(std::size_t inputs, const Ties& ties) {
        Rng rng(inputs + 1);
        tensor::Matrix clean = tensor::Matrix::random_uniform(rng, 160, inputs);
        for (std::size_t r = 0; r < clean.rows(); ++r) {
            for (const auto& [a, b] : ties) clean(r, b) = clean(r, a);
        }
        std::vector<int> labels(clean.rows());
        for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<int>(i % 10);
        return data::Dataset(std::move(clean), std::move(labels), 10,
                             data::ImageShape{inputs, 1, 1});
    }
};

/// Rows at the envelope pass's edges: clean and amplitude-6 probe rows,
/// all-zero and −0.0 rows, negative pixels, ±inf and NaN pixels (at the
/// first line and the last), and tied worst exceedances.
tensor::Matrix edge_rows(std::size_t inputs, const Ties& ties) {
    Rng rng(inputs + 2);
    std::vector<tensor::Vector> rows;
    const auto clean = [&] { return tensor::Vector::random_uniform(rng, inputs); };
    for (int k = 0; k < 4; ++k) rows.push_back(clean());
    for (int k = 0; k < 4; ++k) {
        tensor::Vector probe(inputs, 0.0);
        for (double& x : probe) x = rng.uniform() < 0.3 ? 0.0 : rng.uniform(0.0, 6.0);
        rows.push_back(probe);
    }
    rows.emplace_back(inputs, 0.0);
    rows.emplace_back(inputs, -0.0);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double special : {-2.5, -1e-300, inf, -inf, nan}) {
        for (const std::size_t at : {std::size_t{0}, inputs - 1}) {
            tensor::Vector row = clean();
            row[at] = special;
            rows.push_back(row);
        }
    }
    {
        tensor::Vector row = clean();
        for (std::size_t j = 0; j < inputs; j += 3) row[j] = -row[j];  // below every envelope
        rows.push_back(row);
    }
    for (const auto& [a, b] : ties) {
        for (const double level : {4.0, 50.0, -50.0}) {
            tensor::Vector row = clean();
            row[a] = row[b] = level;
            rows.push_back(row);
        }
    }
    return tensor::Matrix::from_rows(rows);
}

TEST(DetectorEnvelope, EqualsTheReferenceBitForBitOnEdgeRows) {
    // Re-run per kernel arm by the test_detector_<arm> registrations: the
    // AVX-512 arm takes the vectorised pass on the noise-free device,
    // every other case the streamed loop.
    const std::vector<std::pair<std::size_t, Ties>> shapes = {
        {1, {}}, {9, {{0, 8}, {1, 5}}}, {13, {{2, 11}}}, {77, {{3, 16}, {70, 76}}}};
    xbar::DeviceSpec spec;
    spec.g_on_max = 100e-6;
    for (const auto& [inputs, ties] : shapes) {
        const TiedDeployment d(inputs, ties);
        const tensor::Matrix rows = edge_rows(inputs, ties);
        for (const xbar::NonIdealityConfig& nonideal : screen_devices()) {
            Twins t(d.net, spec, nonideal, d.enrol);
            std::size_t positive = 0;
            for (std::size_t r = 0; r < rows.rows(); ++r) {
                const std::uint64_t before = t.hw_a.crossbar().measurement_count();
                const double fused = t.fused.anomaly_score(rows.row_span(r));
                const double reference = t.reference.anomaly_score_reference(rows.row(r));
                ASSERT_EQ(0, std::memcmp(&fused, &reference, sizeof(double)))
                    << inputs << " lines, row " << r << ", noise " << nonideal.read_noise_std
                    << ": " << fused << " vs " << reference;
                ASSERT_EQ(t.hw_a.crossbar().measurement_count(), before + 2);
                if (fused > 0.0) ++positive;
            }
            EXPECT_GT(positive, rows.rows() / 2) << inputs << " lines";
        }
    }
}

TEST_F(DetectorFixture, DefaultModeScoreDoesNotAllocate) {
    const tensor::Matrix rows = split_->test.take(64).inputs();
    core::DetectorScreen screen(*detector_, /*block_flagged=*/false);
    (void)detector_->anomaly_score(rows.row_span(0));  // warm the thread arena
    const std::size_t before = alloc_counter::allocations();
    double sink = 0.0;
    for (std::size_t r = 0; r < rows.rows(); ++r) sink += detector_->anomaly_score(rows.row_span(r));
    (void)screen.screen_batch(rows);
    EXPECT_EQ(alloc_counter::allocations(), before);
    EXPECT_GE(sink, 0.0);
}

TEST_F(DetectorFixture, Validation) {
    EXPECT_THROW(CurrentSignatureDetector(*hardware_, split_->train.take(1)),
                 ContractViolation);
    DetectorConfig bad;
    bad.z_threshold = -1.0;
    EXPECT_THROW(CurrentSignatureDetector(*hardware_, split_->train.take(100), bad),
                 ContractViolation);
    bad = {};
    bad.target_false_positive_rate = 0.0;
    EXPECT_THROW(CurrentSignatureDetector(*hardware_, split_->train.take(100), bad),
                 ContractViolation);
    EXPECT_THROW(detector_->anomaly_score(tensor::Vector(3, 0.0)), ContractViolation);
}

}  // namespace
}  // namespace xbarsec::sidechannel
