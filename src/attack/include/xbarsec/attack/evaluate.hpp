// Black-box attack evaluation through the Oracle interface.
//
// Crafting helpers assemble whole adversarial batches (same per-sample
// RNG order as the scalar attack loops, so results are reproducible
// against the per-vector implementations), and the evaluators score them
// with batched label queries against an `Oracle&` — so the same code
// evaluates a bare crossbar, a software model, or a defended deployment's
// core::Session (where the session's detector screening and query budget
// apply to every evaluation query).
#pragma once

#include <vector>

#include "xbarsec/attack/multi_pixel.hpp"
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

/// Crafts one adversarial example per test sample with the multi-pixel
/// attack on the top-n `power_l1` pixels.
tensor::Matrix craft_multi_pixel_batch(const data::Dataset& test, const tensor::Vector& power_l1,
                                       std::size_t n, double strength,
                                       MultiPixelDirection direction,
                                       const nn::SingleLayerNet* white_box, Rng& rng);

/// Victim (oracle) accuracy when every sample is attacked with `method`
/// at `strength`. `white_box` supplies gradients for WorstCase only.
double evaluate_single_pixel_attack(core::Oracle& oracle, const data::Dataset& test,
                                    SinglePixelMethod method, double strength,
                                    const tensor::Vector* power_l1,
                                    const nn::SingleLayerNet* white_box, Rng& rng);

/// Victim (oracle) accuracy under the top-n multi-pixel attack.
double evaluate_multi_pixel_attack(core::Oracle& oracle, const data::Dataset& test,
                                   const tensor::Vector& power_l1, std::size_t n, double strength,
                                   MultiPixelDirection direction,
                                   const nn::SingleLayerNet* white_box, Rng& rng);

}  // namespace xbarsec::attack
