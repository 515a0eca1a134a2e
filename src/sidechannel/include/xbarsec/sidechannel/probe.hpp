// Power-side-channel probing: recovering column 1-norms from total
// crossbar current (Section II-B of the paper).
//
// With the one-sided mapping, probing input j with u = V·e_j yields
//   i_total = V·G_j = V·(2M·g_off + scale·‖W[:,j]‖₁),
// so one measurement per input line recovers every column's conductance
// sum, and — given the device parameters — the weight-unit 1-norm. With
// read noise, repeated measurements are averaged; the estimator variance
// shrinks as 1/repeats (tested).
//
// The probe operates through a measurement callback so it can run against
// a raw Crossbar or a core::CrossbarOracle (obfuscated or not)
// identically.
#pragma once

#include <cstdint>
#include <functional>

#include "xbarsec/tensor/vector.hpp"
#include "xbarsec/xbar/crossbar.hpp"

namespace xbarsec::sidechannel {

/// Total-current measurement function: maps an input voltage vector to
/// the observed supply current (amperes).
using TotalCurrentFn = std::function<double(const tensor::Vector&)>;

/// Batched variant: row r of the argument is one probe input; the result
/// holds one reading per row. Lets the probe ride the oracle/crossbar
/// batch fast path instead of issuing one query at a time.
using BatchTotalCurrentFn = std::function<tensor::Vector(const tensor::Matrix&)>;

/// Result of probing all columns.
struct ProbeResult {
    /// Estimated per-column conductance sums Ĝ_j (siemens).
    tensor::Vector conductance_sums;

    /// Number of total-current measurements consumed.
    std::uint64_t queries = 0;
};

/// Probe options.
struct ProbeOptions {
    /// Probe voltage V applied to the selected line (others grounded).
    double probe_voltage = 1.0;

    /// Measurements averaged per column (>= 1).
    std::size_t repeats = 1;
};

/// Probes every column of an n-input crossbar through `measure`.
ProbeResult probe_columns(const TotalCurrentFn& measure, std::size_t n,
                          const ProbeOptions& options = {});

/// Batched probe: same estimator and measurement order as the scalar
/// overload (column j's repeats are consecutive rows), issued as basis
/// batches capped at a few MiB so wide arrays stay cache-resident.
ProbeResult probe_columns_batch(const BatchTotalCurrentFn& measure, std::size_t n,
                                const ProbeOptions& options = {});

/// Convenience overload measuring a Crossbar directly (through its
/// batched total-current path).
ProbeResult probe_columns(const xbar::Crossbar& crossbar, const ProbeOptions& options = {});

/// Converts conductance sums to weight-unit column 1-norms given the
/// mapping parameters: ‖W[:,j]‖₁ ≈ (Ĝ_j − 2M·g_off) / scale.
tensor::Vector conductance_to_l1(const tensor::Vector& conductance_sums, std::size_t rows,
                                 double g_off, double weight_scale);

/// Relative ℓ2 estimation error against a ground-truth vector:
/// ‖est − truth‖₂ / ‖truth‖₂ (truth must be non-zero).
double relative_error(const tensor::Vector& estimate, const tensor::Vector& truth);

/// Top-k agreement between two rankings: the fraction of the true top-k
/// indices recovered in the estimated top-k. This is the metric that
/// matters for the Figure-4 attacks (only the ranking is consumed).
double topk_agreement(const tensor::Vector& estimate, const tensor::Vector& truth, std::size_t k);

}  // namespace xbarsec::sidechannel
