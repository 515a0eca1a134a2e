#include "xbarsec/tensor/matrix.hpp"

#include <algorithm>

namespace xbarsec::tensor {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
    rows_ = init.size();
    cols_ = rows_ == 0 ? 0 : init.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : init) {
        XS_EXPECTS_MSG(r.size() == cols_, "ragged initializer list");
        data_.insert(data_.end(), r.begin(), r.end());
    }
}

Matrix Matrix::identity(std::size_t n) {
    Matrix m(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

Matrix Matrix::random_uniform(Rng& rng, std::size_t rows, std::size_t cols, double lo, double hi) {
    Matrix m(rows, cols);
    for (auto& x : m.data_) x = rng.uniform(lo, hi);
    return m;
}

Matrix Matrix::random_normal(Rng& rng, std::size_t rows, std::size_t cols, double mean,
                             double stddev) {
    Matrix m(rows, cols);
    for (auto& x : m.data_) x = rng.normal(mean, stddev);
    return m;
}

Matrix Matrix::from_rows(const std::vector<Vector>& rows) {
    if (rows.empty()) return {};
    const std::size_t cols = rows.front().size();
    Matrix m(rows.size(), cols);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        XS_EXPECTS_MSG(rows[i].size() == cols, "ragged row list");
        std::copy(rows[i].begin(), rows[i].end(), m.data_.begin() + static_cast<std::ptrdiff_t>(i * cols));
    }
    return m;
}

Vector Matrix::row(std::size_t i) const {
    XS_EXPECTS(i < rows_);
    Vector v(cols_);
    const auto src = row_span(i);
    std::copy(src.begin(), src.end(), v.begin());
    return v;
}

void Matrix::set_row(std::size_t i, const Vector& v) {
    XS_EXPECTS(i < rows_ && v.size() == cols_);
    std::copy(v.begin(), v.end(), data_.begin() + static_cast<std::ptrdiff_t>(i * cols_));
}

Matrix Matrix::transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
    return t;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
    XS_EXPECTS(rows_ == rhs.rows_ && cols_ == rhs.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
    return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
    XS_EXPECTS(rows_ == rhs.rows_ && cols_ == rhs.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
    return *this;
}

Matrix& Matrix::operator*=(double s) {
    for (auto& x : data_) x *= s;
    return *this;
}

Matrix& Matrix::operator/=(double s) {
    XS_EXPECTS(s != 0.0);
    for (auto& x : data_) x /= s;
    return *this;
}

void Matrix::fill(double value) {
    std::fill(data_.begin(), data_.end(), value);
}

}  // namespace xbarsec::tensor
