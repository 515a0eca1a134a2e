// Tests for the Vector and Matrix containers.
#include <gtest/gtest.h>

#include "xbarsec/common/contracts.hpp"
#include "xbarsec/tensor/matrix.hpp"
#include "xbarsec/tensor/vector.hpp"

namespace xbarsec::tensor {
namespace {

TEST(Vector, ConstructionAndFill) {
    Vector v(4, 2.5);
    ASSERT_EQ(v.size(), 4u);
    for (std::size_t i = 0; i < v.size(); ++i) EXPECT_DOUBLE_EQ(v[i], 2.5);
    v.fill(-1.0);
    EXPECT_DOUBLE_EQ(v[3], -1.0);
}

TEST(Vector, InitializerList) {
    const Vector v{1.0, 2.0, 3.0};
    ASSERT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(Vector, BasisVector) {
    const Vector e = Vector::basis(5, 2, 3.0);
    EXPECT_DOUBLE_EQ(e[2], 3.0);
    EXPECT_DOUBLE_EQ(e[0], 0.0);
    EXPECT_DOUBLE_EQ(e[4], 0.0);
    EXPECT_THROW(Vector::basis(5, 5), ContractViolation);
}

TEST(Vector, Arithmetic) {
    Vector a{1, 2, 3};
    const Vector b{4, 5, 6};
    a += b;
    EXPECT_DOUBLE_EQ(a[0], 5.0);
    a -= b;
    EXPECT_DOUBLE_EQ(a[2], 3.0);
    a *= 2.0;
    EXPECT_DOUBLE_EQ(a[1], 4.0);
    a /= 4.0;
    EXPECT_DOUBLE_EQ(a[1], 1.0);
    const Vector c = Vector{1, 1, 1} + Vector{2, 2, 2};
    EXPECT_DOUBLE_EQ(c[0], 3.0);
    const Vector d = 2.0 * Vector{1, 2, 3};
    EXPECT_DOUBLE_EQ(d[2], 6.0);
}

TEST(Vector, SizeMismatchThrows) {
    Vector a{1, 2};
    const Vector b{1, 2, 3};
    EXPECT_THROW(a += b, ContractViolation);
    EXPECT_THROW(a -= b, ContractViolation);
}

TEST(Vector, AtChecksBounds) {
    Vector v(3, 0.0);
    EXPECT_NO_THROW(v.at(2));
    EXPECT_THROW(v.at(3), ContractViolation);
}

TEST(Vector, RandomFactoriesDeterministic) {
    Rng r1(5), r2(5);
    const Vector a = Vector::random_uniform(r1, 10, -1, 1);
    const Vector b = Vector::random_uniform(r2, 10, -1, 1);
    EXPECT_EQ(a, b);
    for (const double x : a) {
        EXPECT_GE(x, -1.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Matrix, ConstructionAndIndexing) {
    Matrix m(2, 3, 0.0);
    m(1, 2) = 7.0;
    EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.size(), 6u);
}

TEST(Matrix, InitializerList) {
    const Matrix m{{1, 2}, {3, 4}, {5, 6}};
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(Matrix, RaggedInitializerThrows) {
    EXPECT_THROW((Matrix{{1, 2}, {3}}), ContractViolation);
}

TEST(Matrix, Identity) {
    const Matrix eye = Matrix::identity(3);
    EXPECT_DOUBLE_EQ(eye(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(eye(1, 1), 1.0);
    EXPECT_DOUBLE_EQ(eye(0, 1), 0.0);
}

TEST(Matrix, RowAccessor) {
    const Matrix m{{1, 2, 3}, {4, 5, 6}};
    const Vector r = m.row(1);
    EXPECT_DOUBLE_EQ(r[0], 4.0);
    EXPECT_DOUBLE_EQ(r[2], 6.0);
}

TEST(Matrix, SetRow) {
    Matrix m(2, 2, 0.0);
    m.set_row(0, Vector{1, 2});
    EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m(1, 1), 0.0);
    EXPECT_THROW(m.set_row(0, Vector{1, 2, 3}), ContractViolation);
}

TEST(Matrix, Transposed) {
    const Matrix m{{1, 2, 3}, {4, 5, 6}};
    const Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
    EXPECT_EQ(t.transposed(), m);
}

TEST(Matrix, Arithmetic) {
    Matrix a{{1, 2}, {3, 4}};
    const Matrix b{{1, 1}, {1, 1}};
    a += b;
    EXPECT_DOUBLE_EQ(a(1, 1), 5.0);
    a -= b;
    EXPECT_DOUBLE_EQ(a(1, 1), 4.0);
    a *= 0.5;
    EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
    EXPECT_THROW(a += Matrix(3, 3), ContractViolation);
}

TEST(Matrix, FromRows) {
    const Matrix m = Matrix::from_rows({Vector{1, 2}, Vector{3, 4}});
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
    EXPECT_THROW(Matrix::from_rows({Vector{1, 2}, Vector{3}}), ContractViolation);
}

TEST(Matrix, RowSpanWritesThrough) {
    Matrix m(2, 2, 0.0);
    auto row = m.row_span(1);
    row[0] = 42.0;
    EXPECT_DOUBLE_EQ(m(1, 0), 42.0);
}

TEST(Matrix, AtChecksBounds) {
    Matrix m(2, 2, 0.0);
    EXPECT_NO_THROW(m.at(1, 1));
    EXPECT_THROW(m.at(2, 0), ContractViolation);
    EXPECT_THROW(m.at(0, 2), ContractViolation);
}

TEST(Matrix, RandomFactoriesDeterministic) {
    Rng r1(9), r2(9);
    EXPECT_EQ(Matrix::random_normal(r1, 3, 4), Matrix::random_normal(r2, 3, 4));
}

}  // namespace
}  // namespace xbarsec::tensor
