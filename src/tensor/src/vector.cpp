#include "xbarsec/tensor/vector.hpp"

namespace xbarsec::tensor {

Vector& Vector::operator+=(const Vector& rhs) {
    XS_EXPECTS(size() == rhs.size());
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
    return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
    XS_EXPECTS(size() == rhs.size());
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
    return *this;
}

Vector& Vector::operator*=(double s) {
    for (auto& x : data_) x *= s;
    return *this;
}

Vector& Vector::operator/=(double s) {
    XS_EXPECTS(s != 0.0);
    for (auto& x : data_) x /= s;
    return *this;
}

void Vector::fill(double value) {
    for (auto& x : data_) x = value;
}

Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
Vector operator*(double s, Vector rhs) { return rhs *= s; }

}  // namespace xbarsec::tensor
