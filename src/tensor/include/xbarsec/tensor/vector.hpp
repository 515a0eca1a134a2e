// Dense double-precision vector.
//
// The numerical core of xbarsec works in double precision throughout so
// that crossbar-algebra identities (Eq. 3-5 of the paper) are testable to
// machine precision. Vector is a thin, bounds-checked wrapper over
// contiguous storage with value semantics.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "xbarsec/common/contracts.hpp"
#include "xbarsec/common/rng.hpp"

namespace xbarsec::tensor {

/// Dense 1-D array of double with value semantics.
class Vector {
public:
    Vector() = default;

    /// n elements, all equal to `fill`.
    explicit Vector(std::size_t n, double fill = 0.0) : data_(n, fill) {}

    Vector(std::initializer_list<double> init) : data_(init) {}

    /// Takes ownership of an existing buffer.
    explicit Vector(std::vector<double> data) : data_(std::move(data)) {}

    /// Moves the underlying buffer out, leaving this vector empty —
    /// zero-copy adoption by Matrix::from_row and similar.
    std::vector<double> take() && { return std::move(data_); }

    // ---- factories ------------------------------------------------------

    static Vector zeros(std::size_t n) { return Vector(n, 0.0); }
    static Vector ones(std::size_t n) { return Vector(n, 1.0); }

    /// Scaled standard-basis vector: scale at index j, zero elsewhere.
    /// This is the probe input `u = β·e_j` from Section II-B of the paper.
    static Vector basis(std::size_t n, std::size_t j, double scale = 1.0) {
        XS_EXPECTS(j < n);
        Vector v(n, 0.0);
        v.data_[j] = scale;
        return v;
    }

    /// i.i.d. uniform entries in [lo, hi).
    static Vector random_uniform(Rng& rng, std::size_t n, double lo = 0.0, double hi = 1.0) {
        Vector v(n);
        for (auto& x : v.data_) x = rng.uniform(lo, hi);
        return v;
    }

    /// i.i.d. normal entries.
    static Vector random_normal(Rng& rng, std::size_t n, double mean = 0.0, double stddev = 1.0) {
        Vector v(n);
        for (auto& x : v.data_) x = rng.normal(mean, stddev);
        return v;
    }

    // ---- element access --------------------------------------------------

    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    double operator[](std::size_t i) const {
        XS_ASSERT(i < data_.size());
        return data_[i];
    }
    double& operator[](std::size_t i) {
        XS_ASSERT(i < data_.size());
        return data_[i];
    }

    /// Always-checked access (throws ContractViolation when out of range).
    double at(std::size_t i) const {
        XS_EXPECTS(i < data_.size());
        return data_[i];
    }
    double& at(std::size_t i) {
        XS_EXPECTS(i < data_.size());
        return data_[i];
    }

    double* data() { return data_.data(); }
    const double* data() const { return data_.data(); }

    std::span<double> span() { return {data_.data(), data_.size()}; }
    std::span<const double> span() const { return {data_.data(), data_.size()}; }

    auto begin() { return data_.begin(); }
    auto end() { return data_.end(); }
    auto begin() const { return data_.begin(); }
    auto end() const { return data_.end(); }

    const std::vector<double>& storage() const { return data_; }

    // ---- in-place arithmetic ----------------------------------------------

    Vector& operator+=(const Vector& rhs);
    Vector& operator-=(const Vector& rhs);
    Vector& operator*=(double s);
    Vector& operator/=(double s);

    /// Sets every element to `value`.
    void fill(double value);

    /// Resizes, zero-filling any new elements.
    void resize(std::size_t n) { data_.resize(n, 0.0); }

    friend bool operator==(const Vector& a, const Vector& b) { return a.data_ == b.data_; }

private:
    std::vector<double> data_;
};

Vector operator+(Vector lhs, const Vector& rhs);
Vector operator*(double s, Vector rhs);

}  // namespace xbarsec::tensor
