#include "xbarsec/stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "xbarsec/common/contracts.hpp"

namespace xbarsec::stats {

Summary summarize(std::span<const double> xs) {
    XS_EXPECTS(!xs.empty());
    Summary s;
    s.min = xs[0];
    s.max = xs[0];
    double mean = 0.0, m2 = 0.0;
    std::size_t n = 0;
    for (double x : xs) {
        ++n;
        const double delta = x - mean;
        mean += delta / static_cast<double>(n);
        m2 += delta * (x - mean);
        s.min = std::min(s.min, x);
        s.max = std::max(s.max, x);
    }
    s.count = n;
    s.mean = mean;
    s.variance = n >= 2 ? m2 / static_cast<double>(n - 1) : 0.0;
    s.stddev = std::sqrt(s.variance);
    s.sem = n >= 2 ? s.stddev / std::sqrt(static_cast<double>(n)) : 0.0;
    return s;
}

double quantile(std::span<const double> xs, double p) {
    XS_EXPECTS(!xs.empty());
    XS_EXPECTS(p >= 0.0 && p <= 1.0);
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1) return sorted[0];
    const double pos = p * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace xbarsec::stats
