// Descriptive statistics over spans of doubles.
//
// summarize() computes the variance with Welford's one-pass algorithm
// (numerically stable for the long accumulations in the benches), with
// the sample (n-1) denominator.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace xbarsec::stats {

/// Aggregate moments of a sample, computed in one pass.
struct Summary {
    std::size_t count = 0;
    double mean = 0.0;
    double variance = 0.0;  ///< sample variance (n-1 denominator); 0 when count < 2
    double stddev = 0.0;    ///< sqrt(variance)
    double sem = 0.0;       ///< standard error of the mean; 0 when count < 2
    double min = 0.0;
    double max = 0.0;
};

/// One-pass Welford summary. Requires a non-empty sample.
Summary summarize(std::span<const double> xs);

/// p-th quantile, p in [0,1], linear interpolation; requires non-empty.
/// Copies.
double quantile(std::span<const double> xs, double p);

}  // namespace xbarsec::stats
