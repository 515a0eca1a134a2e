// Crossbar array simulator (Section II-B, Eq. 3 and Eq. 5).
//
// Given a programmed CrossbarProgram, the simulator produces:
//   * the output current vector  i_s = (G⁺ − G⁻)·v        (Eq. 3)
//   * the total supply current   i_total = Σ_j v_j·G_j    (Eq. 5)
//   * the static dissipated power Σ_j v_j²·G_j (outputs at virtual ground)
// with optional measurement-time non-idealities: relative read noise,
// stuck-at device faults (applied to the program at construction), and a
// first-order interconnect IR-drop attenuation.
//
// Every configuration — including line resistance — runs on the dense
// batched path. The first-order IR-drop model keeps each cell linear in
// its drive voltage (i = g·v/(1 + r_wire·g) = a·v), so the per-cell
// attenuation is folded into the programmed-conductance caches once at
// construction and batched inference stays one GEMM. Read noise is a
// counter-based stream, Rng::normal_at(seed, measurement, element): a pure
// function of its coordinates, with no serial generator state. That is
// what lets batches shard across a ThreadPool — or be split into
// sub-batches — and still reproduce the same stream bit for bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>

#include "xbarsec/common/rng.hpp"
#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/tensor/vector.hpp"
#include "xbarsec/xbar/mapping.hpp"

namespace xbarsec::xbar {

/// Measurement-time and fabric non-idealities. All default to the paper's
/// ideal assumptions.
struct NonIdealityConfig {
    /// Relative std-dev of Gaussian noise applied to every measured
    /// current (output currents and the total current independently).
    double read_noise_std = 0.0;

    /// Fractions of devices stuck at g_on_max / g_off (applied once to
    /// the programmed arrays, chosen by `seed`).
    double stuck_on_fraction = 0.0;
    double stuck_off_fraction = 0.0;

    /// Interconnect resistance per cell segment (ohms). 0 disables the
    /// IR-drop model. The first-order model attenuates each cell's
    /// current by 1/(1 + r_line·(i + j + 2)·g_cell): cells electrically
    /// farther from the drivers/sense amps lose more drive.
    double line_resistance = 0.0;

    /// Seed for fault placement and the read-noise stream.
    std::uint64_t seed = 0xBADC0FFEE0DDF00Dull;

    void validate() const;

    bool ideal() const {
        return read_noise_std == 0.0 && stuck_on_fraction == 0.0 && stuck_off_fraction == 0.0 &&
               line_resistance == 0.0;
    }
};

/// Joint current/power reading of one inference.
struct PowerReading {
    double total_current = 0.0;  ///< amperes (Eq. 5)
    double power = 0.0;          ///< watts (Σ v²G, outputs at virtual ground)
};

/// Simulated M×N crossbar.
///
/// Measurement methods are const but advance an internal measurement
/// counter — with read noise enabled, repeated measurements of the same
/// input differ, as on real hardware. The noise value of measurement m,
/// element e is Rng::normal_at(seed, m, e): a batch of B measurements
/// reserves counters [m, m+B) for its rows, so
///   * a batched read equals the same B per-vector reads issued in order,
///   * splitting a batch into sub-batches (processed in order) reproduces
///     the unsplit outputs bit for bit, and
///   * the ThreadPool partition never changes any output bit
/// (all three are pinned by tests/test_nonideal_determinism.cpp). This
/// counter-based contract intentionally replaced the pre-PR-3 serial draw
/// order: seeds produce different noise streams than they did then.
class Crossbar {
public:
    /// Takes ownership of the program; applies stuck faults immediately.
    Crossbar(CrossbarProgram program, NonIdealityConfig nonideal = {});

    // The atomic measurement counter deletes the implicit copy/move
    // special members; these preserve its value (a copy continues the
    // source's noise stream position at the moment of the copy).
    Crossbar(const Crossbar& other)
        : program_(other.program_),
          nonideal_(other.nonideal_),
          g_diff_(other.g_diff_),
          g_diff_t_(other.g_diff_t_),
          g_col_(other.g_col_),
          measurements_(other.measurement_count()) {}
    Crossbar(Crossbar&& other) noexcept
        : program_(std::move(other.program_)),
          nonideal_(other.nonideal_),
          g_diff_(std::move(other.g_diff_)),
          g_diff_t_(std::move(other.g_diff_t_)),
          g_col_(std::move(other.g_col_)),
          measurements_(other.measurement_count()) {}
    Crossbar& operator=(const Crossbar& other) {
        if (this != &other) *this = Crossbar(other);
        return *this;
    }
    Crossbar& operator=(Crossbar&& other) noexcept {
        program_ = std::move(other.program_);
        nonideal_ = other.nonideal_;
        g_diff_ = std::move(other.g_diff_);
        g_diff_t_ = std::move(other.g_diff_t_);
        g_col_ = std::move(other.g_col_);
        measurements_.store(other.measurement_count(), std::memory_order_relaxed);
        return *this;
    }

    std::size_t rows() const { return program_.rows(); }
    std::size_t cols() const { return program_.cols(); }
    const CrossbarProgram& program() const { return program_; }
    const NonIdealityConfig& nonideality() const { return nonideal_; }

    /// Output currents i_s for input voltages v (Eq. 3), amperes.
    /// Runs as one row of the batch GEMM (tensor::gemm_row), so the result
    /// is bit-identical to the corresponding row of any
    /// output_currents_batch call.
    tensor::Vector output_currents(const tensor::Vector& v) const;

    /// output_currents(v) written into `out` (rows() values): the same
    /// measurement, noise coordinates and bits, with no heap allocation.
    void output_currents_into(std::span<const double> v, std::span<double> out) const;

    /// Normalised matrix-vector product: output_currents / weight_scale,
    /// i.e. Ŵ·v in weight units (Eq. 4's s vector).
    tensor::Vector mvm(const tensor::Vector& v) const;

    /// mvm(v) written into `out` (rows() values) with no heap allocation.
    void mvm_into(std::span<const double> v, std::span<double> out) const;

    /// Total steady-state supply current (Eq. 5), amperes.
    double total_current(const tensor::Vector& v) const;

    /// Batched inference: row r of the result is output_currents(V.row(r)).
    /// One dense GEMM against the cached (IR-drop-attenuated) differential
    /// conductance matrix for every configuration — there is no per-vector
    /// fallback. The kernel layer blocks the product into cache-resident
    /// tiles and optionally shards row panels over `pool`; read noise is a
    /// per-element counter stream, so neither the partition nor a batch
    /// split changes any bit of the result.
    tensor::Matrix output_currents_batch(const tensor::Matrix& V, ThreadPool* pool = nullptr) const;

    /// output_currents_batch / weight_scale: row r is Ŵ·V.row(r).
    tensor::Matrix mvm_batch(const tensor::Matrix& V, ThreadPool* pool = nullptr) const;

    /// Batched Eq. 5: out[r] = total_current(V.row(r)). Each reading is a
    /// single dot against the cached attenuated per-column conductance
    /// sums — O(N) per query instead of O(M·N) — using the same
    /// accumulation chain for every row regardless of pool or batch split.
    tensor::Vector total_current_batch(const tensor::Matrix& V, ThreadPool* pool = nullptr) const;

    /// Per-input-line supply currents: out[j] = v_j·G_j (amperes), the
    /// current each input driver sources. Tile-level current sensing (the
    /// DetectX instrumentation model) observes exactly these; they sum to
    /// total_current(v).
    tensor::Vector input_line_currents(const tensor::Vector& v) const;

    /// input_line_currents(v) streamed instead of stored: calls
    /// visit(j, current_j) for every input line j in ascending order with
    /// the bits input_line_currents would hold at j. Reserves the same one
    /// measurement and allocates nothing — the detector folds its envelope
    /// test into this single pass. (input_line_currents keeps its own
    /// loop as the reference this one is pinned against.)
    template <typename Visit>
    void visit_input_line_currents(std::span<const double> v, Visit&& visit) const {
        XS_EXPECTS(v.size() == cols());
        const std::uint64_t meas = reserve_measurements(1);
        const double* __restrict g = g_col_.data();
        if (nonideal_.read_noise_std == 0.0) {
            // Noise-free factors are exactly 1.0, so the multiply is
            // dropped, and there is no branch on the (sparse,
            // unpredictable) zero pixels: adding +0 turns an undriven
            // line's ±0 into the +0 the noisy path stores, and leaves
            // every other value unchanged.
            for (std::size_t j = 0; j < v.size(); ++j) visit(j, v[j] * g[j] + 0.0);
        } else {
            for (std::size_t j = 0; j < v.size(); ++j) {
                const double vj = v[j];
                visit(j, vj == 0.0 ? 0.0 : vj * g[j] * noise_factor(meas, j));
            }
        }
    }

    /// The line conductances G_j of a noise-free device, for a caller that
    /// computes the line currents v_j·G_j itself (the detector's
    /// vectorised envelope pass): reserves the one measurement an
    /// input_line_currents read takes. On a noise-free device
    /// input_line_currents holds v_j·G_j + 0.0 at j. A noisy device's
    /// currents need the read's noise factors, so it is a contract
    /// violation to call this there; use visit_input_line_currents.
    std::span<const double> reserve_noise_free_line_read() const {
        XS_EXPECTS(nonideal_.read_noise_std == 0.0);
        (void)reserve_measurements(1);
        return g_col_.span();
    }

    /// Static power with outputs at virtual ground: Σ_j v_j²·G_j, watts.
    double static_power(const tensor::Vector& v) const;

    /// total_current + static_power in one measurement (shares the noise
    /// draw pattern of separate calls).
    PowerReading read_power(const tensor::Vector& v) const;

    /// Ground-truth per-column conductance sums G_j (no noise, no IR
    /// drop) — for tests and for computing probe estimation error.
    tensor::Vector column_conductances() const { return column_conductance_sums(program_); }

    /// Ground-truth effective weight matrix (no read noise).
    tensor::Matrix effective_weights() const { return xbar::effective_weights(program_); }

    /// Number of current measurements taken so far (each output-current
    /// vector read or total-current read counts as one). Also the base of
    /// the read-noise counter stream.
    std::uint64_t measurement_count() const {
        return measurements_.load(std::memory_order_relaxed);
    }

    // ---- reference implementations -----------------------------------------
    //
    // The faithful per-cell simulation the vectorized paths replaced:
    // nested loops over every (i, j) device evaluating the IR-drop divider
    // directly. They consume measurement counters exactly like the fast
    // paths, so a fresh crossbar driven through these reproduces the fast
    // paths' noise coordinates. Retained as the ground truth for the
    // equivalence suite (tests/test_nonideal_equivalence.cpp) and as the
    // per-vector fallback baseline the benches measure speedups against —
    // not for production use.

    /// Per-cell reference for output_currents().
    tensor::Vector output_currents_reference(const tensor::Vector& v) const;

    /// Per-cell reference for total_current().
    double total_current_reference(const tensor::Vector& v) const;

    /// Per-cell reference for static_power().
    double static_power_reference(const tensor::Vector& v) const;

private:
    void apply_stuck_faults(Rng& rng);
    void build_caches();
    double cell_current(std::size_t i, std::size_t j, double g, double v) const;

    /// Multiplicative read-noise factor of measurement `meas`, element
    /// `idx` — 1.0 when noise is disabled.
    double noise_factor(std::uint64_t meas, std::uint64_t idx) const;

    /// Reserves `n` measurement counters and returns the first.
    std::uint64_t reserve_measurements(std::uint64_t n) const;

    CrossbarProgram program_;
    NonIdealityConfig nonideal_;
    /// Post-fault, post-attenuation caches for the batched paths: with
    /// a±(i,j) = g±/(1 + r_line·(i+j+2)·g±) (= g± when r_line is 0),
    /// g_diff_ = A⁺ − A⁻ (and its transpose, the GEMM operand — batched
    /// inference is V·(A⁺−A⁻)ᵀ) and g_col_[j] = Σ_i (A⁺+A⁻)(i,j), the
    /// attenuated Eq. 5 column sums.
    tensor::Matrix g_diff_;
    tensor::Matrix g_diff_t_;
    tensor::Vector g_col_;
    /// Atomic: concurrent callers (OracleService flushes, pool workers
    /// hammering one stack) must each reserve a disjoint counter range —
    /// a torn read-modify-write would hand two measurements the same
    /// noise coordinates.
    mutable std::atomic<std::uint64_t> measurements_{0};
};

}  // namespace xbarsec::xbar
