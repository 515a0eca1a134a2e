// Correlation coefficient tests (the Table-I metric).
#include <gtest/gtest.h>

#include <vector>

#include "xbarsec/common/contracts.hpp"
#include "xbarsec/common/rng.hpp"
#include "xbarsec/stats/correlation.hpp"

namespace xbarsec::stats {
namespace {

TEST(Pearson, PerfectPositiveAndNegative) {
    const std::vector<double> x{1, 2, 3, 4};
    const std::vector<double> y{2, 4, 6, 8};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
    const std::vector<double> yn{8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, yn), -1.0, 1e-12);
}

TEST(Pearson, KnownHandComputedValue) {
    const std::vector<double> x{1, 2, 3, 4, 5};
    const std::vector<double> y{2, 1, 4, 3, 5};
    // r = cov/σxσy = 0.8 for this classic example.
    EXPECT_NEAR(pearson(x, y), 0.8, 1e-12);
}

TEST(Pearson, ZeroVarianceGivesZero) {
    const std::vector<double> x{1, 1, 1};
    const std::vector<double> y{1, 2, 3};
    EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
    EXPECT_DOUBLE_EQ(pearson(y, x), 0.0);
}

TEST(Pearson, InvariantToAffineTransforms) {
    Rng rng(1);
    std::vector<double> x(100), y(100), x2(100), y2(100);
    for (std::size_t i = 0; i < 100; ++i) {
        x[i] = rng.normal();
        y[i] = 0.5 * x[i] + rng.normal();
        x2[i] = 3.0 * x[i] - 7.0;
        y2[i] = -2.0 * y[i] + 11.0;  // negative scale flips the sign
    }
    EXPECT_NEAR(pearson(x2, y2), -pearson(x, y), 1e-12);
}

TEST(Pearson, SizeContractViolations) {
    const std::vector<double> a{1, 2}, b{1, 2, 3}, one{1};
    EXPECT_THROW(pearson(std::span<const double>(a), std::span<const double>(b)),
                 xbarsec::ContractViolation);
    EXPECT_THROW(pearson(std::span<const double>(one), std::span<const double>(one)),
                 xbarsec::ContractViolation);
}

TEST(Pearson, VectorOverload) {
    const tensor::Vector x{1, 2, 3};
    const tensor::Vector y{4, 5, 6};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, UncorrelatedIsNearZero) {
    Rng rng(2);
    std::vector<double> x(5000), y(5000);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = rng.normal();
        y[i] = rng.normal();
    }
    EXPECT_NEAR(pearson(x, y), 0.0, 0.05);
}

}  // namespace
}  // namespace xbarsec::stats
