// Pearson correlation.
//
// Table I of the paper reports Pearson correlation between the magnitude
// of the loss sensitivity |∂L/∂u_j| and the column 1-norms ‖W[:,j]‖₁ —
// both per-sample ("Mean Correlation") and between the test-set means
// ("Correlation of Mean"). pearson() is that metric.
#pragma once

#include <span>

#include "xbarsec/tensor/vector.hpp"

namespace xbarsec::stats {

/// Pearson product-moment correlation coefficient of two equal-length
/// samples. Returns 0 when either sample has zero variance (degenerate,
/// matching NumPy's nan-avoidance convention used in practice for flat
/// sensitivity maps). Requires size >= 2.
double pearson(std::span<const double> x, std::span<const double> y);

/// Vector convenience overload.
double pearson(const tensor::Vector& x, const tensor::Vector& y);

}  // namespace xbarsec::stats
