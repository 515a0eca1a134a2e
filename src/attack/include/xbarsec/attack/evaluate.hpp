// Black-box attack evaluation through the Oracle interface.
//
// craft_single_pixel_batch assembles a whole adversarial batch (same
// per-sample RNG order as the scalar attack loop, so results reproduce
// the per-vector implementation), and oracle_accuracy scores it with
// batched label queries against an `Oracle&` — a bare crossbar, a
// software model, or a defended deployment's core::Session, where the
// session's detector screening and query budget apply to every
// evaluation query.
#pragma once

#include <vector>

#include "xbarsec/attack/single_pixel.hpp"
#include "xbarsec/core/oracle.hpp"
#include "xbarsec/data/dataset.hpp"

namespace xbarsec::attack {

/// Fraction of rows of X the oracle labels as `labels` (batched queries).
double oracle_accuracy(core::Oracle& oracle, const tensor::Matrix& X,
                       const std::vector<int>& labels);

/// Oracle accuracy on a clean dataset.
double oracle_accuracy(core::Oracle& oracle, const data::Dataset& dataset);

/// Crafts one adversarial example per test sample with the single-pixel
/// method (same RNG consumption order as the per-sample loop).
tensor::Matrix craft_single_pixel_batch(SinglePixelMethod method, const data::Dataset& test,
                                        double strength, const tensor::Vector* power_l1,
                                        const nn::SingleLayerNet* white_box, Rng& rng);

}  // namespace xbarsec::attack
