// Current-signature adversarial-input detection (defensive baseline).
//
// The paper cites Moitra & Panda's DetectX (TCAS-I 2021), which flags
// adversarial inputs from the current signatures they induce in
// memristive crossbars. This module implements that idea for the
// single-layer setting with two signature granularities:
//   * InputLineCurrents (default, DetectX-style tile sensing): enrols the
//     class-conditional distribution of each input line's current draw
//     v_j·G_j and flags inputs whose worst per-line z-score is anomalous.
//     A strength-s single-pixel hit drives its line to ~s× the physical
//     clean maximum — unmissable.
//   * OutputCurrents: per-output-line currents. Coarser: the attacked
//     column's 1-norm is a SUM across output lines, so each line only
//     shifts by s·w_ij·scale ≈ 1σ.
//   * TotalCurrent: the scalar supply current only. Deliberately weak (a
//     documented negative result): a single-pixel hit moves i_total by
//     only ~1-2σ of the clean ink-amount spread.
// Small-ε FGSM noise moves both signatures little and mostly evades
// either mode (quantified by bench_detector).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "xbarsec/data/dataset.hpp"
#include "xbarsec/stats/descriptive.hpp"
#include "xbarsec/xbar/xbar_network.hpp"

namespace xbarsec::sidechannel {

enum class SignatureMode {
    InputLineCurrents,  ///< per-input-line supply currents (DetectX-style
                        ///< tile sensing; default). A power-guided pixel
                        ///< hit drives its line far beyond the physical
                        ///< clean maximum — unmissable.
    OutputCurrents,     ///< per-output-line currents (coarser: the high-L1
                        ///< column's weight is spread across lines)
    TotalCurrent,       ///< scalar supply current only (weak baseline)
};

/// Configuration for the detector's decision rule.
struct DetectorConfig {
    /// Manual decision threshold on the anomaly score. 0 (default) =
    /// auto-calibrate to the (1 − target_false_positive_rate) quantile of
    /// held-out enrolment scores.
    double z_threshold = 0.0;

    /// Clean-data false-positive budget for auto-calibration.
    double target_false_positive_rate = 0.02;

    SignatureMode mode = SignatureMode::InputLineCurrents;
};

/// Class-conditional current profile learned from clean data.
class CurrentSignatureDetector {
public:
    /// Enrols the detector on clean inputs: runs each sample through the
    /// deployed network, records (predicted class, signature), and fits
    /// per-class component means/stds. Classes never predicted during
    /// enrolment fall back to the global profile.
    CurrentSignatureDetector(const xbar::CrossbarNetwork& hardware,
                             const data::Dataset& clean_enrollment,
                             DetectorConfig config = {});

    /// True when the input's current signature is anomalous for the class
    /// the network assigns it.
    bool is_adversarial(std::span<const double> u) const;

    /// The decision statistic: the worst per-component *envelope
    /// exceedance*. For each component the enrolment fits a class-
    /// conditional operating range [lo, hi]; the score is
    /// max_d (distance of sig_d outside [lo_d, hi_d]) / range_d.
    /// Inside the envelope the score is 0. Per-line currents are bimodal
    /// (ink / no ink), so range-based scoring is far more robust than
    /// z-scores here — and it matches the physics: a clean input can
    /// never draw more than v_max·G_j on line j.
    ///
    /// In the default InputLineCurrents mode the score allocates nothing:
    /// the row is classified through the allocation-free single-row path,
    /// and each line current is tested against the envelope as it is
    /// read. Each call takes the same two crossbar measurements as
    /// classify() followed by input_line_currents(), in that order, so
    /// read-noise devices answer exactly as anomaly_score_reference does.
    double anomaly_score(std::span<const double> u) const;

    /// The composed score — classify, the full signature vector, then the
    /// envelope loop. The other signature modes score through it; for
    /// InputLineCurrents it is the ground truth the fused anomaly_score is
    /// pinned against (tests/test_detector.cpp).
    double anomaly_score_reference(const tensor::Vector& u) const;

    /// Fraction of a batch flagged (false-positive rate on clean data,
    /// detection rate on adversarial batches).
    double flagged_fraction(const tensor::Matrix& inputs) const;

    /// The decision threshold in effect (manual or auto-calibrated).
    double threshold() const { return threshold_; }

    const DetectorConfig& config() const { return config_; }

private:
    struct ClassProfile {
        std::vector<double> lo;
        std::vector<double> hi;
        std::vector<double> range;  ///< hi − lo, floored
        bool enrolled = false;
    };

    tensor::Vector signature(const tensor::Vector& u) const;

    const xbar::CrossbarNetwork* hardware_;
    DetectorConfig config_;
    std::vector<ClassProfile> profiles_;
    ClassProfile global_;
    double threshold_ = 0.0;
};

}  // namespace xbarsec::sidechannel
