#include "xbarsec/sidechannel/detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "xbarsec/common/contracts.hpp"
#include "xbarsec/stats/descriptive.hpp"
#include "xbarsec/tensor/gemm.hpp"
#include "xbarsec/tensor/ops.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace xbarsec::sidechannel {

namespace {

#if defined(__x86_64__) && defined(__GNUC__)
#define XS_DETECTOR_HAVE_AVX512 1

/// The envelope test over a noise-free read, eight lines per step: the
/// streamed loop's worst exceedance bit for bit. Each lane computes the
/// same IEEE operations as one step of that loop (this file is compiled
/// with -ffp-contract=off, so v·G is never fused into the subtractions),
/// and each std::max is transcribed as its compare and select, so NaN
/// currents and ratios (∞/∞) are skipped exactly as there. A max is
/// exact, so the order the lanes fold in cannot change the result. The
/// streamed loop adds +0.0 to v·G only to canonicalise the sign of an
/// undriven line's zero; no exceedance depends on that sign. Lanes past
/// the row's end are masked out.
__attribute__((target("avx512f"))) double envelope_score_avx512(
    const double* __restrict v, const double* __restrict g, const double* __restrict lo,
    const double* __restrict hi, const double* __restrict range, std::size_t n) {
    const __m512d zero = _mm512_setzero_pd();
    const __m512d one = _mm512_set1_pd(1.0);
    __m512d worst = zero;
    for (std::size_t j = 0; j < n; j += 8) {
        const __mmask8 live =
            n - j >= 8 ? static_cast<__mmask8>(0xFF) : static_cast<__mmask8>((1u << (n - j)) - 1u);
        const __m512d sig =
            _mm512_mul_pd(_mm512_maskz_loadu_pd(live, v + j), _mm512_maskz_loadu_pd(live, g + j));
        const __m512d above = _mm512_sub_pd(sig, _mm512_maskz_loadu_pd(live, hi + j));
        const __m512d below = _mm512_sub_pd(_mm512_maskz_loadu_pd(live, lo + j), sig);
        // exceed = std::max(above, below) = (above < below) ? below : above
        const __m512d exceed =
            _mm512_mask_blend_pd(_mm512_cmp_pd_mask(above, below, _CMP_LT_OQ), above, below);
        const __mmask8 out = _mm512_mask_cmp_pd_mask(live, exceed, zero, _CMP_GT_OQ);
        if (out == 0) continue;  // inside the envelope: most lines of a clean row
        const __m512d ratio = _mm512_div_pd(exceed, _mm512_mask_loadu_pd(one, live, range + j));
        // worst = std::max(worst, ratio) = (worst < ratio) ? ratio : worst
        worst = _mm512_mask_blend_pd(_mm512_mask_cmp_pd_mask(out, worst, ratio, _CMP_LT_OQ),
                                     worst, ratio);
    }
    alignas(64) double lanes[8];
    _mm512_store_pd(lanes, worst);
    double score = 0.0;
    for (const double lane : lanes) score = std::max(score, lane);
    return score;
}
#endif

}  // namespace

tensor::Vector CurrentSignatureDetector::signature(const tensor::Vector& u) const {
    switch (config_.mode) {
        case SignatureMode::TotalCurrent: {
            tensor::Vector sig(1);
            sig[0] = hardware_->total_current(u);
            return sig;
        }
        case SignatureMode::OutputCurrents: return hardware_->crossbar().output_currents(u);
        case SignatureMode::InputLineCurrents:
            return hardware_->crossbar().input_line_currents(u);
    }
    XS_EXPECTS_MSG(false, "unhandled signature mode");
    return {};
}

CurrentSignatureDetector::CurrentSignatureDetector(const xbar::CrossbarNetwork& hardware,
                                                   const data::Dataset& clean_enrollment,
                                                   DetectorConfig config)
    : hardware_(&hardware), config_(config) {
    XS_EXPECTS(config.z_threshold >= 0.0);
    XS_EXPECTS(config.target_false_positive_rate > 0.0 &&
               config.target_false_positive_rate < 1.0);
    XS_EXPECTS(clean_enrollment.size() >= 2);
    XS_EXPECTS(clean_enrollment.input_dim() == hardware.inputs());

    const std::size_t classes = hardware.outputs();
    std::size_t dims = 1;
    if (config_.mode == SignatureMode::OutputCurrents) dims = hardware.outputs();
    if (config_.mode == SignatureMode::InputLineCurrents) dims = hardware.inputs();

    // Split the enrolment set: even indices fit the profiles, odd indices
    // calibrate the threshold. Calibrating on the fitting samples would
    // bias the threshold low (their scores shrink toward their own
    // profiles) and inflate the held-out false-positive rate.
    const bool auto_calibrate = config_.z_threshold == 0.0;
    std::vector<std::size_t> fit_idx, cal_idx;
    for (std::size_t i = 0; i < clean_enrollment.size(); ++i) {
        if (!auto_calibrate || i % 2 == 0) fit_idx.push_back(i);
        else cal_idx.push_back(i);
    }

    struct Envelope {
        std::vector<double> lo, hi;
        std::size_t count = 0;
        void init(std::size_t d) {
            lo.assign(d, std::numeric_limits<double>::infinity());
            hi.assign(d, -std::numeric_limits<double>::infinity());
        }
        void push(const tensor::Vector& sig) {
            for (std::size_t d = 0; d < lo.size(); ++d) {
                lo[d] = std::min(lo[d], sig[d]);
                hi[d] = std::max(hi[d], sig[d]);
            }
            ++count;
        }
    };
    std::vector<Envelope> per_class(classes);
    Envelope global;
    global.init(dims);
    for (auto& e : per_class) e.init(dims);

    for (const std::size_t i : fit_idx) {
        const tensor::Vector u = clean_enrollment.input(i);
        const auto label = static_cast<std::size_t>(hardware.classify(u));
        const tensor::Vector sig = signature(u);
        per_class[label].push(sig);
        global.push(sig);
    }

    auto finalize = [dims](const Envelope& env, ClassProfile& out) {
        out.lo = env.lo;
        out.hi = env.hi;
        out.range.resize(dims);
        double range_sum = 0.0;
        for (std::size_t d = 0; d < dims; ++d) range_sum += env.hi[d] - env.lo[d];
        // Floor each component's range at 10% of the mean range so
        // near-constant components cannot produce unbounded exceedance
        // ratios from measurement dust.
        const double floor_range =
            std::max(1e-18, 0.10 * range_sum / static_cast<double>(dims));
        for (std::size_t d = 0; d < dims; ++d) {
            out.range[d] = std::max(env.hi[d] - env.lo[d], floor_range);
        }
        out.enrolled = true;
    };

    finalize(global, global_);
    profiles_.resize(classes);
    for (std::size_t c = 0; c < classes; ++c) {
        if (per_class[c].count >= 2) {
            finalize(per_class[c], profiles_[c]);
        } else {
            // Rarely-predicted class: fall back to the global profile.
            profiles_[c] = global_;
        }
    }

    if (!auto_calibrate) {
        threshold_ = config_.z_threshold;
    } else {
        XS_EXPECTS_MSG(cal_idx.size() >= 10,
                       "auto-calibration needs at least ~20 enrolment samples");
        std::vector<double> scores(cal_idx.size());
        for (std::size_t k = 0; k < cal_idx.size(); ++k) {
            scores[k] = anomaly_score(clean_enrollment.inputs().row_span(cal_idx[k]));
        }
        threshold_ = stats::quantile(scores, 1.0 - config_.target_false_positive_rate);
    }
}

double CurrentSignatureDetector::anomaly_score(std::span<const double> u) const {
    XS_EXPECTS(u.size() == hardware_->inputs());
    if (config_.mode != SignatureMode::InputLineCurrents) {
        return anomaly_score_reference(tensor::Vector(std::vector<double>(u.begin(), u.end())));
    }
    const auto label = static_cast<std::size_t>(hardware_->classify(u));
    const ClassProfile& p = profiles_[label];
    const double* __restrict lo = p.lo.data();
    const double* __restrict hi = p.hi.data();
    const double* __restrict range = p.range.data();
    const xbar::Crossbar& crossbar = hardware_->crossbar();
#ifdef XS_DETECTOR_HAVE_AVX512
    if (crossbar.nonideality().read_noise_std == 0.0 && tensor::avx512_in_effect()) {
        const std::span<const double> g = crossbar.reserve_noise_free_line_read();
        return envelope_score_avx512(u.data(), g.data(), lo, hi, range, u.size());
    }
#endif
    double worst = 0.0;
    crossbar.visit_input_line_currents(u, [&](std::size_t d, double sig) {
        const double exceed = std::max(sig - hi[d], lo[d] - sig);
        if (exceed > 0.0) worst = std::max(worst, exceed / range[d]);
    });
    return worst;
}

double CurrentSignatureDetector::anomaly_score_reference(const tensor::Vector& u) const {
    XS_EXPECTS(u.size() == hardware_->inputs());
    const auto label = static_cast<std::size_t>(tensor::argmax(hardware_->predict(u)));
    const tensor::Vector sig = signature(u);
    const ClassProfile& p = profiles_[label];
    double worst = 0.0;
    for (std::size_t d = 0; d < sig.size(); ++d) {
        const double exceed = std::max(sig[d] - p.hi[d], p.lo[d] - sig[d]);
        if (exceed > 0.0) worst = std::max(worst, exceed / p.range[d]);
    }
    return worst;
}

bool CurrentSignatureDetector::is_adversarial(std::span<const double> u) const {
    return anomaly_score(u) > threshold_;
}

double CurrentSignatureDetector::flagged_fraction(const tensor::Matrix& inputs) const {
    XS_EXPECTS(inputs.rows() > 0);
    std::size_t flagged = 0;
    for (std::size_t i = 0; i < inputs.rows(); ++i) {
        if (is_adversarial(inputs.row_span(i))) ++flagged;
    }
    return static_cast<double>(flagged) / static_cast<double>(inputs.rows());
}

}  // namespace xbarsec::sidechannel
