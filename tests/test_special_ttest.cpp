// Special functions and Welch's t-test (the Figure-5 significance
// machinery).
// Reference values computed with an independent Python implementation
// (continued fraction cross-checked against numeric integration).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "xbarsec/common/contracts.hpp"
#include "xbarsec/stats/special.hpp"
#include "xbarsec/stats/ttest.hpp"

namespace xbarsec::stats {
namespace {

TEST(IncompleteBeta, BoundaryValues) {
    EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
}

TEST(IncompleteBeta, SymmetricCase) {
    // I_x(a, a) at x = 1/2 is exactly 1/2.
    for (const double a : {0.5, 1.0, 2.0, 7.5}) {
        EXPECT_NEAR(incomplete_beta(a, a, 0.5), 0.5, 1e-12);
    }
}

TEST(IncompleteBeta, UniformSpecialCase) {
    // I_x(1, 1) = x (Beta(1,1) is uniform).
    for (const double x : {0.1, 0.25, 0.9}) {
        EXPECT_NEAR(incomplete_beta(1.0, 1.0, x), x, 1e-12);
    }
}

TEST(IncompleteBeta, ClosedFormAgainstPolynomial) {
    // I_x(2, 2) = 3x² − 2x³.
    for (const double x : {0.2, 0.5, 0.8}) {
        EXPECT_NEAR(incomplete_beta(2.0, 2.0, x), 3 * x * x - 2 * x * x * x, 1e-12);
    }
    // I_x(1, b) = 1 − (1−x)^b.
    EXPECT_NEAR(incomplete_beta(1.0, 4.0, 0.3), 1.0 - std::pow(0.7, 4.0), 1e-12);
}

TEST(IncompleteBeta, ComplementIdentity) {
    // I_x(a,b) + I_{1-x}(b,a) = 1.
    EXPECT_NEAR(incomplete_beta(3.2, 1.7, 0.4) + incomplete_beta(1.7, 3.2, 0.6), 1.0, 1e-12);
}

TEST(IncompleteBeta, InvalidArgumentsThrow) {
    EXPECT_THROW(incomplete_beta(0.0, 1.0, 0.5), xbarsec::ContractViolation);
    EXPECT_THROW(incomplete_beta(1.0, 1.0, -0.1), xbarsec::ContractViolation);
    EXPECT_THROW(incomplete_beta(1.0, 1.0, 1.1), xbarsec::ContractViolation);
}

TEST(StudentT, TwoTailedPValues) {
    // scipy: 2*(1 - t.cdf(2.228, 10)) = 0.0500 (the classic 5% cutoff).
    EXPECT_NEAR(student_t_two_tailed_p(2.228, 10.0), 0.05, 1e-3);
    EXPECT_NEAR(student_t_two_tailed_p(0.0, 10.0), 1.0, 1e-12);
    // Symmetric in the sign of t.
    EXPECT_NEAR(student_t_two_tailed_p(-1.3, 7.0), student_t_two_tailed_p(1.3, 7.0), 1e-12);
    // t = 2.0, df = 10: scipy t.cdf(2, 10) = 0.9633059826146297.
    EXPECT_NEAR(student_t_two_tailed_p(2.0, 10.0), 2.0 * (1.0 - 0.9633059826146297), 2e-10);
    // df = 1 is the Cauchy distribution: CDF(1) = 0.75.
    EXPECT_NEAR(student_t_two_tailed_p(1.0, 1.0), 0.5, 2e-10);
    // Large df approaches the normal: CDF(1.96, 1e6) ≈ 0.975.
    EXPECT_NEAR(student_t_two_tailed_p(1.96, 1e6), 0.05, 2e-3);
}

TEST(WelchTTest, ScipyReferenceCase) {
    // Reference values cross-checked against an independent Python
    // implementation (continued fraction AND numeric integration of the
    // t pdf agree to 1e-13):
    //   a = [1, 2, 3, 4, 5], b = [2, 4, 6, 8, 10]
    //   t = -1.8973665961010275, df = 5.882352941, p = 0.10753119493062714
    const std::vector<double> a{1, 2, 3, 4, 5};
    const std::vector<double> b{2, 4, 6, 8, 10};
    const TTestResult r = welch_t_test(a, b);
    EXPECT_NEAR(r.t, -1.8973665961010275, 1e-10);
    EXPECT_NEAR(r.df, 5.882352941176471, 1e-9);
    EXPECT_NEAR(r.p_value, 0.10753119493062714, 1e-8);
    EXPECT_FALSE(r.significant());
}

TEST(WelchTTest, ClearlySeparatedSamplesAreSignificant) {
    const std::vector<double> a{10.0, 10.1, 9.9, 10.05, 9.95};
    const std::vector<double> b{12.0, 12.1, 11.9, 12.05, 11.95};
    const TTestResult r = welch_t_test(a, b);
    EXPECT_TRUE(r.significant(0.001));
    EXPECT_LT(r.t, 0.0);  // mean_a < mean_b
    EXPECT_NEAR(r.mean_a, 10.0, 1e-9);
    EXPECT_NEAR(r.mean_b, 12.0, 1e-9);
}

TEST(WelchTTest, IdenticalConstantSamplesNotSignificant) {
    const std::vector<double> a{3, 3, 3};
    const std::vector<double> b{3, 3, 3};
    const TTestResult r = welch_t_test(a, b);
    EXPECT_DOUBLE_EQ(r.t, 0.0);
    EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(WelchTTest, DistinctConstantSamplesAreCertain) {
    const std::vector<double> a{3, 3, 3};
    const std::vector<double> b{4, 4, 4};
    const TTestResult r = welch_t_test(a, b);
    EXPECT_TRUE(std::isinf(r.t));
    EXPECT_DOUBLE_EQ(r.p_value, 0.0);
    EXPECT_TRUE(r.significant());
}

TEST(WelchTTest, RequiresTwoSamplesEach) {
    const std::vector<double> a{1.0};
    const std::vector<double> b{1.0, 2.0};
    EXPECT_THROW(welch_t_test(a, b), xbarsec::ContractViolation);
}

}  // namespace
}  // namespace xbarsec::stats
