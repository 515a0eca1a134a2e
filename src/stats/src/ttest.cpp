#include "xbarsec/stats/ttest.hpp"

#include <cmath>
#include <limits>

#include "xbarsec/common/contracts.hpp"
#include "xbarsec/stats/descriptive.hpp"
#include "xbarsec/stats/special.hpp"

namespace xbarsec::stats {

namespace {

TTestResult finish(double t, double df, double mean_a, double mean_b) {
    TTestResult r;
    r.t = t;
    r.df = df;
    r.mean_a = mean_a;
    r.mean_b = mean_b;
    if (std::isinf(t)) {
        r.p_value = 0.0;
    } else if (std::isnan(t)) {
        r.p_value = 1.0;
    } else {
        r.p_value = student_t_two_tailed_p(t, df);
    }
    return r;
}

// Handles the zero-variance degenerate case.
bool degenerate(double var_a, double var_b, double mean_a, double mean_b, double df,
                TTestResult& out) {
    if (var_a > 0.0 || var_b > 0.0) return false;
    const double t = mean_a == mean_b ? 0.0
                                      : std::copysign(std::numeric_limits<double>::infinity(),
                                                      mean_a - mean_b);
    out = finish(t, df > 0 ? df : 1.0, mean_a, mean_b);
    return true;
}

}  // namespace

TTestResult welch_t_test(std::span<const double> a, std::span<const double> b) {
    XS_EXPECTS(a.size() >= 2 && b.size() >= 2);
    const Summary sa = summarize(a);
    const Summary sb = summarize(b);
    const double na = static_cast<double>(sa.count), nb = static_cast<double>(sb.count);
    const double va = sa.variance / na, vb = sb.variance / nb;

    TTestResult r;
    if (degenerate(sa.variance, sb.variance, sa.mean, sb.mean, na + nb - 2.0, r)) return r;

    const double t = (sa.mean - sb.mean) / std::sqrt(va + vb);
    // Welch–Satterthwaite degrees of freedom.
    const double df = (va + vb) * (va + vb) /
                      (va * va / (na - 1.0) + vb * vb / (nb - 1.0));
    return finish(t, df, sa.mean, sb.mean);
}

}  // namespace xbarsec::stats
