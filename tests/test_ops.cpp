// Tests for BLAS-1/2 operations, including the crossbar-algebra helpers.
#include <gtest/gtest.h>

#include <cmath>

#include "xbarsec/common/contracts.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::tensor {
namespace {

TEST(Ops, Dot) {
    const Vector a{1, 2, 3};
    const Vector b{4, 5, 6};
    EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
    EXPECT_THROW(dot(a, Vector{1, 2}), ContractViolation);
}

TEST(Ops, Sum) {
    const Vector v{1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(sum(v), 10.0);
    EXPECT_DOUBLE_EQ(sum(Vector{}), 0.0);
}

TEST(Ops, Norms) {
    const Vector v{3, -4, 0};
    EXPECT_DOUBLE_EQ(norm2(v), 5.0);
    EXPECT_DOUBLE_EQ(norm_inf(v), 4.0);
}

TEST(Ops, ArgmaxAndMax) {
    const Vector v{1, 9, -3, 9};
    EXPECT_EQ(argmax(v), 1u);  // first of ties
    EXPECT_DOUBLE_EQ(max(v), 9.0);
    EXPECT_THROW(argmax(Vector{}), ContractViolation);
}

TEST(Ops, ElementwiseHelpers) {
    const Vector v{-2, 0, 3};
    const Vector a = abs(v);
    EXPECT_DOUBLE_EQ(a[0], 2.0);
    const Vector s = sign(v);
    EXPECT_DOUBLE_EQ(s[0], -1.0);
    EXPECT_DOUBLE_EQ(s[1], 0.0);
    EXPECT_DOUBLE_EQ(s[2], 1.0);
    const Vector h = hadamard(Vector{1, 2}, Vector{3, 4});
    EXPECT_DOUBLE_EQ(h[1], 8.0);
}

TEST(Ops, AllFinite) {
    EXPECT_TRUE(all_finite(Vector{1, 2}));
    EXPECT_FALSE(all_finite(Vector{1, std::nan("")}));
    EXPECT_FALSE(all_finite(Vector{1, INFINITY}));
    Matrix m(2, 2, 1.0);
    EXPECT_TRUE(all_finite(m));
    m(1, 1) = std::nan("");
    EXPECT_FALSE(all_finite(m));
}

TEST(Ops, MatvecMatchesManual) {
    const Matrix W{{1, 2, 3}, {4, 5, 6}};
    const Vector u{1, 0, -1};
    const Vector s = matvec(W, u);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s[0], -2.0);
    EXPECT_DOUBLE_EQ(s[1], -2.0);
    EXPECT_THROW(matvec(W, Vector{1, 2}), ContractViolation);
}

TEST(Ops, MatvecTransposedMatchesExplicitTranspose) {
    Rng rng(1);
    const Matrix W = Matrix::random_normal(rng, 7, 5);
    const Vector v = Vector::random_normal(rng, 7);
    const Vector a = matvec_transposed(W, v);
    const Vector b = matvec(W.transposed(), v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(Ops, GerAndOuter) {
    Matrix A(2, 3, 1.0);
    ger(2.0, Vector{1, 2}, Vector{1, 0, -1}, A);
    EXPECT_DOUBLE_EQ(A(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(A(1, 2), -3.0);
    const Matrix O = outer(Vector{1, 2}, Vector{3, 4});
    EXPECT_DOUBLE_EQ(O(1, 0), 6.0);
    EXPECT_DOUBLE_EQ(O(0, 1), 4.0);
}

TEST(Ops, ColumnAbsSumsIsThePowerLeak) {
    // Eq. 5-6: the column 1-norms are what the total current reveals.
    const Matrix W{{1, -2, 0}, {-3, 4, 0.5}};
    const Vector l1 = column_abs_sums(W);
    ASSERT_EQ(l1.size(), 3u);
    EXPECT_DOUBLE_EQ(l1[0], 4.0);
    EXPECT_DOUBLE_EQ(l1[1], 6.0);
    EXPECT_DOUBLE_EQ(l1[2], 0.5);
}

TEST(Ops, ColumnSums) {
    const Matrix W{{1, -2}, {-3, 4}};
    const Vector cols = column_sums(W);
    EXPECT_DOUBLE_EQ(cols[0], -2.0);
    EXPECT_DOUBLE_EQ(cols[1], 2.0);
}

TEST(Ops, FrobeniusAndMaxAbs) {
    const Matrix W{{3, 0}, {0, 4}};
    EXPECT_DOUBLE_EQ(frobenius_norm(W), 5.0);
    EXPECT_DOUBLE_EQ(max_abs(W), 4.0);
}

// Property sweep: column_abs_sums equals a manual per-column loop for
// random matrices of many shapes.
class ColumnSumsProperty : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ColumnSumsProperty, MatchesManualComputation) {
    const auto [rows, cols] = GetParam();
    Rng rng(rows * 131 + cols);
    const Matrix W = Matrix::random_normal(rng, rows, cols);
    const Vector fast = column_abs_sums(W);
    for (std::size_t j = 0; j < cols; ++j) {
        double manual = 0.0;
        for (std::size_t i = 0; i < rows; ++i) manual += std::abs(W(i, j));
        EXPECT_NEAR(fast[j], manual, 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ColumnSumsProperty,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                                           std::pair<std::size_t, std::size_t>{1, 17},
                                           std::pair<std::size_t, std::size_t>{10, 784},
                                           std::pair<std::size_t, std::size_t>{33, 5},
                                           std::pair<std::size_t, std::size_t>{7, 7}));

}  // namespace
}  // namespace xbarsec::tensor
