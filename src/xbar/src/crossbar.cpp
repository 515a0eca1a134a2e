#include "xbarsec/xbar/crossbar.hpp"

#include <cmath>

#include "xbarsec/common/error.hpp"
#include "xbarsec/tensor/gemm.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::xbar {

void NonIdealityConfig::validate() const {
    if (read_noise_std < 0.0) throw ConfigError("NonIdealityConfig: read_noise_std must be >= 0");
    if (stuck_on_fraction < 0.0 || stuck_on_fraction > 1.0 || stuck_off_fraction < 0.0 ||
        stuck_off_fraction > 1.0 || stuck_on_fraction + stuck_off_fraction > 1.0) {
        throw ConfigError("NonIdealityConfig: stuck fractions must be in [0,1] and sum to <= 1");
    }
    if (line_resistance < 0.0) throw ConfigError("NonIdealityConfig: line_resistance must be >= 0");
}

Crossbar::Crossbar(CrossbarProgram program, NonIdealityConfig nonideal)
    : program_(std::move(program)), nonideal_(nonideal) {
    nonideal_.validate();
    XS_EXPECTS(program_.rows() > 0 && program_.cols() > 0);
    if (nonideal_.stuck_on_fraction > 0.0 || nonideal_.stuck_off_fraction > 0.0) {
        Rng fault_rng(nonideal_.seed);
        apply_stuck_faults(fault_rng);
    }
    build_caches();
}

void Crossbar::apply_stuck_faults(Rng& rng) {
    // Each physical device (2 per weight) independently draws its fate.
    auto afflict = [&](tensor::Matrix& g) {
        for (std::size_t i = 0; i < g.rows(); ++i) {
            for (std::size_t j = 0; j < g.cols(); ++j) {
                const double u = rng.uniform();
                if (u < nonideal_.stuck_on_fraction) {
                    g(i, j) = program_.spec.g_on_max;
                } else if (u < nonideal_.stuck_on_fraction + nonideal_.stuck_off_fraction) {
                    g(i, j) = program_.spec.g_off;
                }
            }
        }
    };
    afflict(program_.g_plus);
    afflict(program_.g_minus);
}

void Crossbar::build_caches() {
    // The IR-drop divider i = g·v/(1 + r_wire·g) is linear in v, so the
    // whole non-ideality is an elementwise conductance attenuation
    // a = g/(1 + r_line·(i+j+2)·g), computed once over the post-fault
    // program (r_line = 0 leaves a = g). Every measurement path reads
    // these caches; the per-cell physics survives only in cell_current()
    // for the retained reference implementations.
    const std::size_t m = rows(), n = cols();
    const double r_line = nonideal_.line_resistance;
    g_diff_ = tensor::Matrix(m, n, 0.0);
    g_col_ = tensor::Vector(n, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double a_plus = program_.g_plus(i, j);
            double a_minus = program_.g_minus(i, j);
            if (r_line != 0.0) {
                const double r_wire = r_line * static_cast<double>(i + j + 2);
                a_plus /= 1.0 + r_wire * a_plus;
                a_minus /= 1.0 + r_wire * a_minus;
            }
            g_diff_(i, j) = a_plus - a_minus;
            g_col_[j] += a_plus + a_minus;
        }
    }
    g_diff_t_ = g_diff_.transposed();
}

double Crossbar::cell_current(std::size_t i, std::size_t j, double g, double v) const {
    if (g == 0.0 || v == 0.0) return 0.0;
    if (nonideal_.line_resistance == 0.0) return g * v;
    // First-order IR drop: the series wire resistance seen by cell (i, j)
    // grows with its distance from the input driver (j segments) and the
    // sense amplifier (i segments); the cell and the wire form a divider.
    const double r_wire =
        nonideal_.line_resistance * static_cast<double>(i + j + 2);
    return g * v / (1.0 + r_wire * g);
}

double Crossbar::noise_factor(std::uint64_t meas, std::uint64_t idx) const {
    if (nonideal_.read_noise_std == 0.0) return 1.0;
    return 1.0 + nonideal_.read_noise_std * Rng::normal_at(nonideal_.seed, meas, idx);
}

std::uint64_t Crossbar::reserve_measurements(std::uint64_t n) const {
    return measurements_.fetch_add(n, std::memory_order_relaxed);
}

tensor::Vector Crossbar::output_currents(const tensor::Vector& v) const {
    tensor::Vector out(rows());
    output_currents_into(v.span(), out.span());
    return out;
}

void Crossbar::output_currents_into(std::span<const double> v, std::span<double> out) const {
    XS_EXPECTS(v.size() == cols());
    XS_EXPECTS(out.size() == rows());
    // One row of the batch path: the same reservation, the same row-stable
    // GEMM chain (gemm_row), the same noise coordinates — so a scalar read
    // is bit-identical to the matching batch row.
    const std::uint64_t meas = reserve_measurements(1);
    tensor::gemm_row(1.0, v, g_diff_t_, tensor::Op::None, 0.0, out);
    if (nonideal_.read_noise_std != 0.0) {
        for (std::size_t i = 0; i < out.size(); ++i) out[i] *= noise_factor(meas, i);
    }
}

tensor::Vector Crossbar::mvm(const tensor::Vector& v) const {
    tensor::Vector out(rows());
    mvm_into(v.span(), out.span());
    return out;
}

void Crossbar::mvm_into(std::span<const double> v, std::span<double> out) const {
    XS_EXPECTS(program_.weight_scale != 0.0);
    output_currents_into(v, out);
    for (double& x : out) x /= program_.weight_scale;
}

double Crossbar::total_current(const tensor::Vector& v) const {
    XS_EXPECTS(v.size() == cols());
    // Eq. 5: both G⁺ and G⁻ draw supply current regardless of weight sign.
    const std::uint64_t meas = reserve_measurements(1);
    return tensor::dot(v, g_col_) * noise_factor(meas, 0);
}

tensor::Matrix Crossbar::output_currents_batch(const tensor::Matrix& V, ThreadPool* pool) const {
    XS_EXPECTS(V.cols() == cols());
    const std::size_t batch = V.rows();
    tensor::Matrix out(batch, rows(), 0.0);
    if (batch == 0) return out;
    const std::uint64_t base = reserve_measurements(batch);

    // Dense path for every configuration: out = V · (A⁺ − A⁻)ᵀ as one
    // GEMM against the cached attenuated differential conductances. The
    // row-stable variant guarantees each output row's accumulation chain
    // is independent of the batch size and the pool partition.
    tensor::gemm_rowstable(1.0, V, tensor::Op::None, g_diff_t_, tensor::Op::None, 0.0, out, pool);

    if (nonideal_.read_noise_std != 0.0) {
        // Counter-based stream: row r of this batch is measurement
        // base + r, element i is coordinate i — a pure function, so any
        // batch split or pool partition reproduces it.
        const std::size_t m = rows();
        for (std::size_t r = 0; r < batch; ++r) {
            auto row = out.row_span(r);
            for (std::size_t i = 0; i < m; ++i) row[i] *= noise_factor(base + r, i);
        }
    }
    return out;
}

tensor::Matrix Crossbar::mvm_batch(const tensor::Matrix& V, ThreadPool* pool) const {
    // Divide, as mvm does: multiplying by the rounded reciprocal differs
    // from the scalar path in the last bit on about half the rows.
    tensor::Matrix S = output_currents_batch(V, pool);
    S /= program_.weight_scale;
    return S;
}

tensor::Vector Crossbar::total_current_batch(const tensor::Matrix& V, ThreadPool* pool) const {
    XS_EXPECTS(V.cols() == cols());
    const std::size_t batch = V.rows();
    tensor::Vector out(batch, 0.0);
    if (batch == 0) return out;
    const std::uint64_t base = reserve_measurements(batch);

    // Eq. 5 for the whole batch: one dot per row against the cached
    // attenuated column sums, each row using the exact accumulation chain
    // of the scalar total_current() path (rowwise_dot), so scalar, batch,
    // split-batch, and pooled reads agree bit for bit.
    out = tensor::rowwise_dot(V, g_col_, pool);

    if (nonideal_.read_noise_std != 0.0) {
        for (std::size_t r = 0; r < batch; ++r) out[r] *= noise_factor(base + r, 0);
    }
    return out;
}

tensor::Vector Crossbar::input_line_currents(const tensor::Vector& v) const {
    XS_EXPECTS(v.size() == cols());
    const std::uint64_t meas = reserve_measurements(1);
    tensor::Vector out(cols(), 0.0);
    for (std::size_t j = 0; j < cols(); ++j) {
        const double vj = v[j];
        if (vj == 0.0) continue;
        out[j] = vj * g_col_[j] * noise_factor(meas, j);
    }
    return out;
}

double Crossbar::static_power(const tensor::Vector& v) const {
    XS_EXPECTS(v.size() == cols());
    const std::uint64_t meas = reserve_measurements(1);
    double acc = 0.0;
    for (std::size_t j = 0; j < cols(); ++j) {
        // P = V·I per cell with the output rail at virtual ground.
        acc += v[j] * v[j] * g_col_[j];
    }
    return acc * noise_factor(meas, 0);
}

// ---- reference implementations ----------------------------------------------

tensor::Vector Crossbar::output_currents_reference(const tensor::Vector& v) const {
    XS_EXPECTS(v.size() == cols());
    const std::uint64_t meas = reserve_measurements(1);
    tensor::Vector out(rows(), 0.0);
    for (std::size_t i = 0; i < rows(); ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < cols(); ++j) {
            const double vj = v[j];
            if (vj == 0.0) continue;
            acc += cell_current(i, j, program_.g_plus(i, j), vj);
            acc -= cell_current(i, j, program_.g_minus(i, j), vj);
        }
        out[i] = acc * noise_factor(meas, i);
    }
    return out;
}

double Crossbar::total_current_reference(const tensor::Vector& v) const {
    XS_EXPECTS(v.size() == cols());
    const std::uint64_t meas = reserve_measurements(1);
    double acc = 0.0;
    for (std::size_t j = 0; j < cols(); ++j) {
        const double vj = v[j];
        if (vj == 0.0) continue;
        for (std::size_t i = 0; i < rows(); ++i) {
            acc += cell_current(i, j, program_.g_plus(i, j), vj);
            acc += cell_current(i, j, program_.g_minus(i, j), vj);
        }
    }
    return acc * noise_factor(meas, 0);
}

double Crossbar::static_power_reference(const tensor::Vector& v) const {
    XS_EXPECTS(v.size() == cols());
    const std::uint64_t meas = reserve_measurements(1);
    double acc = 0.0;
    for (std::size_t j = 0; j < cols(); ++j) {
        const double vj = v[j];
        if (vj == 0.0) continue;
        for (std::size_t i = 0; i < rows(); ++i) {
            acc += vj * cell_current(i, j, program_.g_plus(i, j), vj);
            acc += vj * cell_current(i, j, program_.g_minus(i, j), vj);
        }
    }
    return acc * noise_factor(meas, 0);
}

}  // namespace xbarsec::xbar
