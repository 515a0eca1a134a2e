// Dense row-major double-precision matrix.
//
// The weight matrices in the paper are small (10×784, 10×3072), so a plain
// contiguous row-major layout with a blocked GEMM (gemm.hpp) is more than
// adequate and keeps every numerical identity easy to audit.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "xbarsec/common/contracts.hpp"
#include "xbarsec/common/rng.hpp"
#include "xbarsec/tensor/vector.hpp"

namespace xbarsec::tensor {

/// Dense 2-D array of double, row-major, value semantics.
class Matrix {
public:
    Matrix() = default;

    /// rows×cols matrix, all elements equal to `fill`.
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

    /// Row-of-rows initializer; all rows must have equal length.
    Matrix(std::initializer_list<std::initializer_list<double>> init);

    // ---- factories ------------------------------------------------------

    static Matrix zeros(std::size_t rows, std::size_t cols) { return {rows, cols, 0.0}; }
    static Matrix ones(std::size_t rows, std::size_t cols) { return {rows, cols, 1.0}; }
    static Matrix identity(std::size_t n);

    /// i.i.d. uniform entries in [lo, hi).
    static Matrix random_uniform(Rng& rng, std::size_t rows, std::size_t cols, double lo = 0.0,
                                 double hi = 1.0);

    /// i.i.d. normal entries.
    static Matrix random_normal(Rng& rng, std::size_t rows, std::size_t cols, double mean = 0.0,
                                double stddev = 1.0);

    /// Builds a matrix whose i-th row is rows[i] (all same length).
    static Matrix from_rows(const std::vector<Vector>& rows);

    /// 1×n matrix adopting the vector's storage (no copy). The serving
    /// layer uses this to wrap scalar query submissions as one-row
    /// batches without touching the payload.
    static Matrix from_row(Vector v) {
        Matrix m;
        m.rows_ = 1;
        m.cols_ = v.size();
        m.data_ = std::move(v).take();
        return m;
    }

    // ---- shape -----------------------------------------------------------

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    // ---- element access --------------------------------------------------

    double operator()(std::size_t i, std::size_t j) const {
        XS_ASSERT(i < rows_ && j < cols_);
        return data_[i * cols_ + j];
    }
    double& operator()(std::size_t i, std::size_t j) {
        XS_ASSERT(i < rows_ && j < cols_);
        return data_[i * cols_ + j];
    }

    /// Always-checked access.
    double at(std::size_t i, std::size_t j) const {
        XS_EXPECTS(i < rows_ && j < cols_);
        return data_[i * cols_ + j];
    }
    double& at(std::size_t i, std::size_t j) {
        XS_EXPECTS(i < rows_ && j < cols_);
        return data_[i * cols_ + j];
    }

    double* data() { return data_.data(); }
    const double* data() const { return data_.data(); }

    /// Contiguous view of row i.
    std::span<double> row_span(std::size_t i) {
        XS_EXPECTS(i < rows_);
        return {data_.data() + i * cols_, cols_};
    }
    std::span<const double> row_span(std::size_t i) const {
        XS_EXPECTS(i < rows_);
        return {data_.data() + i * cols_, cols_};
    }

    /// Copies of a row / column as Vector.
    Vector row(std::size_t i) const;
    Vector col(std::size_t j) const;

    void set_row(std::size_t i, const Vector& v);
    void set_col(std::size_t j, const Vector& v);

    // ---- whole-matrix operations ------------------------------------------

    /// Returns the transpose (new storage).
    Matrix transposed() const;

    /// Reshape view is not provided; reshaped() copies into a new shape with
    /// the same element count.
    Matrix reshaped(std::size_t rows, std::size_t cols) const;

    /// Destructive in-place reshape to rows×cols, reusing the existing
    /// heap capacity when it suffices. Element values are unspecified
    /// afterwards — this exists for workspace reuse (Workspace), where the
    /// caller overwrites the whole matrix anyway.
    void resize(std::size_t rows, std::size_t cols) {
        rows_ = rows;
        cols_ = cols;
        data_.resize(rows * cols);
    }

    Matrix& operator+=(const Matrix& rhs);
    Matrix& operator-=(const Matrix& rhs);
    Matrix& operator*=(double s);
    Matrix& operator/=(double s);

    void fill(double value);

    friend bool operator==(const Matrix& a, const Matrix& b) {
        return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
    }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix lhs, double s);
Matrix operator*(double s, Matrix rhs);

}  // namespace xbarsec::tensor
