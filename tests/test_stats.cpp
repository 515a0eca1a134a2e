// Descriptive statistics tests.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "xbarsec/common/contracts.hpp"
#include "xbarsec/stats/descriptive.hpp"

namespace xbarsec::stats {
namespace {

TEST(Descriptive, SummaryKnownValues) {
    const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    const Summary s = summarize(xs);
    EXPECT_EQ(s.count, 8u);
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_NEAR(s.variance, 32.0 / 7.0, 1e-12);  // sample variance
    EXPECT_NEAR(s.stddev, std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(s.min, 2.0);
    EXPECT_DOUBLE_EQ(s.max, 9.0);
    EXPECT_NEAR(s.sem, s.stddev / std::sqrt(8.0), 1e-12);
}

TEST(Descriptive, SingleElementSummary) {
    const std::vector<double> xs{3.0};
    const Summary s = summarize(xs);
    EXPECT_EQ(s.count, 1u);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_DOUBLE_EQ(s.variance, 0.0);
    EXPECT_DOUBLE_EQ(s.sem, 0.0);
}

TEST(Descriptive, EmptySampleThrows) {
    const std::vector<double> xs;
    EXPECT_THROW(summarize(xs), ContractViolation);
    EXPECT_THROW(quantile(xs, 0.5), ContractViolation);
}

TEST(Descriptive, WelfordMatchesTwoPass) {
    std::vector<double> xs;
    // Large offset stresses numerical stability; Welford should not lose
    // precision where the naive two-pass E[x²]−E[x]² would.
    for (int i = 0; i < 1000; ++i) xs.push_back(1e6 + i * 0.001);
    const Summary s = summarize(xs);
    double m = 0.0;
    for (const double x : xs) m += x;
    m /= static_cast<double>(xs.size());
    double v = 0.0;
    for (const double x : xs) v += (x - m) * (x - m);
    v /= static_cast<double>(xs.size() - 1);
    EXPECT_NEAR(s.variance, v, v * 1e-6);
}

TEST(Descriptive, MedianAndQuantiles) {
    const std::vector<double> odd{5.0, 1.0, 3.0};
    EXPECT_DOUBLE_EQ(quantile(odd, 0.5), 3.0);
    const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(quantile(even, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(quantile(even, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(even, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantile(even, 0.25), 1.75);
    EXPECT_THROW(quantile(even, 1.5), ContractViolation);
}

}  // namespace
}  // namespace xbarsec::stats
