// Special functions needed for p-values.
//
// The significance asterisks in Figure 5 come from a two-sample Student's
// t-test; converting a t statistic to a p-value needs the CDF of the t
// distribution, which reduces to the regularised incomplete beta function
// I_x(a, b). Implemented with the standard Lentz continued-fraction
// expansion (Numerical Recipes §6.4 formulation).
#pragma once

namespace xbarsec::stats {

/// Regularised incomplete beta function I_x(a, b), for a,b > 0 and
/// x ∈ [0, 1]. Accurate to ~1e-12 over the parameter ranges used here.
double incomplete_beta(double a, double b, double x);

/// Two-tailed p-value for a t statistic with `df` degrees of freedom.
double student_t_two_tailed_p(double t, double df);

}  // namespace xbarsec::stats
