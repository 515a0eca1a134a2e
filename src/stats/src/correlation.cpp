#include "xbarsec/stats/correlation.hpp"

#include <cmath>

#include "xbarsec/common/contracts.hpp"

namespace xbarsec::stats {

double pearson(std::span<const double> x, std::span<const double> y) {
    XS_EXPECTS(x.size() == y.size());
    XS_EXPECTS(x.size() >= 2);
    const auto n = static_cast<double>(x.size());
    double mx = 0.0, my = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        mx += x[i];
        my += y[i];
    }
    mx /= n;
    my /= n;
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double dx = x[i] - mx;
        const double dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0) return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

double pearson(const tensor::Vector& x, const tensor::Vector& y) {
    return pearson(x.span(), y.span());
}

}  // namespace xbarsec::stats
