#include "xbarsec/tensor/ops.hpp"

#include <algorithm>
#include <cmath>

namespace xbarsec::tensor {

namespace {

/// Four-chain inner product: partial sums break the single add-latency
/// dependency chain so the loop pipelines (and vectorizes) instead of
/// serialising on one accumulator.
inline double dot_kernel(const double* __restrict pa, const double* __restrict pb, std::size_t n) {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        a0 += pa[i] * pb[i];
        a1 += pa[i + 1] * pb[i + 1];
        a2 += pa[i + 2] * pb[i + 2];
        a3 += pa[i + 3] * pb[i + 3];
    }
    double acc = (a0 + a1) + (a2 + a3);
    for (; i < n; ++i) acc += pa[i] * pb[i];
    return acc;
}

/// Four rows against one shared vector: every u load is amortised over
/// four independent accumulator chains.
inline void dot_rows4(const double* __restrict r0, const double* __restrict r1,
                      const double* __restrict r2, const double* __restrict r3,
                      const double* __restrict u, std::size_t n, double* __restrict out) {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    double b0 = 0.0, b1 = 0.0, b2 = 0.0, b3 = 0.0;
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
        const double u0 = u[j], u1 = u[j + 1];
        a0 += r0[j] * u0;
        b0 += r0[j + 1] * u1;
        a1 += r1[j] * u0;
        b1 += r1[j + 1] * u1;
        a2 += r2[j] * u0;
        b2 += r2[j + 1] * u1;
        a3 += r3[j] * u0;
        b3 += r3[j + 1] * u1;
    }
    for (; j < n; ++j) {
        const double u0 = u[j];
        a0 += r0[j] * u0;
        a1 += r1[j] * u0;
        a2 += r2[j] * u0;
        a3 += r3[j] * u0;
    }
    out[0] = a0 + b0;
    out[1] = a1 + b1;
    out[2] = a2 + b2;
    out[3] = a3 + b3;
}

}  // namespace

double dot(const Vector& a, const Vector& b) {
    XS_EXPECTS(a.size() == b.size());
    return dot_kernel(a.data(), b.data(), a.size());
}

double sum(const Vector& v) {
    double acc = 0.0;
    for (double x : v) acc += x;
    return acc;
}

double norm2(const Vector& v) {
    double acc = 0.0;
    for (double x : v) acc += x * x;
    return std::sqrt(acc);
}

double norm_inf(const Vector& v) {
    double acc = 0.0;
    for (double x : v) acc = std::max(acc, std::abs(x));
    return acc;
}

std::size_t argmax(const Vector& v) {
    XS_EXPECTS(!v.empty());
    return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) - v.begin());
}

double max(const Vector& v) {
    XS_EXPECTS(!v.empty());
    return *std::max_element(v.begin(), v.end());
}

Vector hadamard(const Vector& a, const Vector& b) {
    XS_EXPECTS(a.size() == b.size());
    Vector out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
    return out;
}

Vector abs(const Vector& v) {
    Vector out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::abs(v[i]);
    return out;
}

Vector sign(const Vector& v) {
    Vector out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        out[i] = v[i] > 0.0 ? 1.0 : (v[i] < 0.0 ? -1.0 : 0.0);
    }
    return out;
}

bool all_finite(const Vector& v) {
    for (double x : v)
        if (!std::isfinite(x)) return false;
    return true;
}

namespace {

/// Row-range worker for matvec: 4-row blocks share u loads; tail rows run
/// the plain four-chain dot. Rows are independent, so any row partition
/// that starts blocks at multiples of 4 gives bit-identical results.
void matvec_rows(const Matrix& W, const double* __restrict pu, std::size_t i0, std::size_t i1,
                 double* __restrict po) {
    const std::size_t n = W.cols();
    const double* const base = W.data();
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4) {
        dot_rows4(base + i * n, base + (i + 1) * n, base + (i + 2) * n, base + (i + 3) * n, pu, n,
                  po + i);
    }
    for (; i < i1; ++i) po[i] = dot_kernel(base + i * n, pu, n);
}

}  // namespace

Vector matvec(const Matrix& W, const Vector& u) { return matvec(W, u, nullptr); }

Vector matvec(const Matrix& W, const Vector& u, ThreadPool* pool) {
    XS_EXPECTS(W.cols() == u.size());
    Vector out(W.rows());
    const std::size_t m = W.rows(), n = W.cols();

    // Tile the rows so each task's slice of W stays cache-resident while
    // it is consumed; multiples of 4 keep the row blocking — and thus the
    // floating-point result — identical to the serial pass.
    constexpr std::size_t kTileBytes = 1u << 20;
    std::size_t rows_per_tile = kTileBytes / (8 * std::max<std::size_t>(n, 1));
    rows_per_tile = std::max<std::size_t>(64, (rows_per_tile / 4) * 4);

    if (pool != nullptr && m >= 2 * rows_per_tile) {
        const std::size_t tiles = (m + rows_per_tile - 1) / rows_per_tile;
        parallel_for(*pool, tiles, [&](std::size_t t) {
            const std::size_t r0 = t * rows_per_tile;
            matvec_rows(W, u.data(), r0, std::min(r0 + rows_per_tile, m), out.data());
        });
    } else {
        matvec_rows(W, u.data(), 0, m, out.data());
    }
    return out;
}

Vector rowwise_dot(const Matrix& V, const Vector& g, ThreadPool* pool) {
    XS_EXPECTS(V.cols() == g.size());
    const std::size_t m = V.rows(), n = V.cols();
    Vector out(m, 0.0);
    const double* const base = V.data();
    const double* const pg = g.data();
    double* const po = out.data();

    // One dot_kernel chain per row: the per-row result is a pure function
    // of that row, so any partition of the rows — serial, pooled, or a
    // caller-side batch split — produces identical bits.
    auto run_rows = [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) po[r] = dot_kernel(base + r * n, pg, n);
    };
    constexpr std::size_t kRowsPerTask = 64;
    if (pool != nullptr && m >= 2 * kRowsPerTask) {
        const std::size_t tasks = (m + kRowsPerTask - 1) / kRowsPerTask;
        parallel_for(*pool, tasks, [&](std::size_t t) {
            const std::size_t r0 = t * kRowsPerTask;
            run_rows(r0, std::min(r0 + kRowsPerTask, m));
        });
    } else {
        run_rows(0, m);
    }
    return out;
}

Vector matvec_transposed(const Matrix& W, const Vector& v) {
    XS_EXPECTS(W.rows() == v.size());
    Vector out(W.cols(), 0.0);
    double* __restrict po = out.data();
    for (std::size_t i = 0; i < W.rows(); ++i) {
        const double* __restrict row = W.data() + i * W.cols();
        const double vi = v[i];
        for (std::size_t j = 0; j < W.cols(); ++j) po[j] += vi * row[j];
    }
    return out;
}

void ger(double alpha, const Vector& u, const Vector& v, Matrix& A) {
    XS_EXPECTS(A.rows() == u.size() && A.cols() == v.size());
    const double* __restrict pv = v.data();
    for (std::size_t i = 0; i < u.size(); ++i) {
        const double aui = alpha * u[i];
        double* __restrict row = A.data() + i * A.cols();
        for (std::size_t j = 0; j < A.cols(); ++j) row[j] += aui * pv[j];
    }
}

Matrix outer(const Vector& u, const Vector& v) {
    Matrix A(u.size(), v.size(), 0.0);
    ger(1.0, u, v, A);
    return A;
}

Vector column_abs_sums(const Matrix& W) {
    Vector out(W.cols(), 0.0);
    double* __restrict po = out.data();
    const std::size_t n = W.cols();
    const double* const base = W.data();
    // Four rows per pass quarters the traffic through the accumulator row.
    std::size_t i = 0;
    for (; i + 4 <= W.rows(); i += 4) {
        const double* __restrict r0 = base + i * n;
        const double* __restrict r1 = base + (i + 1) * n;
        const double* __restrict r2 = base + (i + 2) * n;
        const double* __restrict r3 = base + (i + 3) * n;
        for (std::size_t j = 0; j < n; ++j) {
            po[j] += (std::abs(r0[j]) + std::abs(r1[j])) + (std::abs(r2[j]) + std::abs(r3[j]));
        }
    }
    for (; i < W.rows(); ++i) {
        const double* __restrict row = base + i * n;
        for (std::size_t j = 0; j < n; ++j) po[j] += std::abs(row[j]);
    }
    return out;
}

Vector column_sums(const Matrix& W) {
    Vector out;
    column_sums_into(W, out);
    return out;
}

void column_sums_into(const Matrix& W, Vector& out) {
    out.resize(W.cols());
    out.fill(0.0);
    double* po = out.data();
    for (std::size_t i = 0; i < W.rows(); ++i) {
        const auto row = W.row_span(i);
        for (std::size_t j = 0; j < row.size(); ++j) po[j] += row[j];
    }
}

std::vector<int> argmax_rows(const Matrix& M) {
    XS_EXPECTS(M.cols() > 0);
    std::vector<int> out(M.rows());
    for (std::size_t r = 0; r < M.rows(); ++r) {
        const auto row = M.row_span(r);
        std::size_t best = 0;
        for (std::size_t j = 1; j < row.size(); ++j) {
            if (row[j] > row[best]) best = j;
        }
        out[r] = static_cast<int>(best);
    }
    return out;
}

double mean_squared_row_norm(const Matrix& W, std::size_t max_rows) {
    XS_EXPECTS(W.rows() > 0);
    const std::size_t rows = max_rows == 0 ? W.rows() : std::min(max_rows, W.rows());
    double acc = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
        const auto row = W.row_span(i);
        for (const double x : row) acc += x * x;
    }
    return acc / static_cast<double>(rows);
}

double frobenius_norm(const Matrix& W) {
    double acc = 0.0;
    const double* p = W.data();
    for (std::size_t i = 0; i < W.size(); ++i) acc += p[i] * p[i];
    return std::sqrt(acc);
}

double max_abs(const Matrix& W) {
    double acc = 0.0;
    const double* p = W.data();
    for (std::size_t i = 0; i < W.size(); ++i) acc = std::max(acc, std::abs(p[i]));
    return acc;
}

bool all_finite(const Matrix& W) {
    const double* p = W.data();
    for (std::size_t i = 0; i < W.size(); ++i)
        if (!std::isfinite(p[i])) return false;
    return true;
}

void gather_rows(const Matrix& src, const std::vector<std::size_t>& idx, std::size_t lo,
                 std::size_t hi, Matrix& out) {
    XS_EXPECTS(lo <= hi && hi <= idx.size());
    XS_EXPECTS(&out != &src);
    out.resize(hi - lo, src.cols());
    for (std::size_t r = lo; r < hi; ++r) {
        XS_EXPECTS(idx[r] < src.rows());
        const auto s = src.row_span(idx[r]);
        auto d = out.row_span(r - lo);
        std::copy(s.begin(), s.end(), d.begin());
    }
}

}  // namespace xbarsec::tensor
