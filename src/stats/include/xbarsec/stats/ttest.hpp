// Welch's two-sample t-test.
//
// Figure 5(c,f,i,l) marks with an asterisk every (Q, λ) point where the
// attack-efficacy difference between the power-aided and power-free
// surrogates is significant at p < 0.05 under a Student's t-test over the
// independent runs. welch_t_test() is that test, without an
// equal-variance assumption.
#pragma once

#include <span>

namespace xbarsec::stats {

/// Result of a t-test.
struct TTestResult {
    double t = 0.0;        ///< test statistic
    double df = 0.0;       ///< degrees of freedom (fractional for Welch)
    double p_value = 1.0;  ///< two-tailed p-value
    double mean_a = 0.0;
    double mean_b = 0.0;

    /// Convenience significance check.
    bool significant(double alpha = 0.05) const { return p_value < alpha; }
};

/// Welch's unequal-variance two-sample t-test. Requires both samples to
/// have size >= 2. Degenerate case (both variances zero): t = 0, p = 1
/// when means are equal, otherwise t = ±inf, p = 0.
TTestResult welch_t_test(std::span<const double> a, std::span<const double> b);

}  // namespace xbarsec::stats
