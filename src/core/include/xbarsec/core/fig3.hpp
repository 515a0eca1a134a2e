// Figure 3: sensitivity maps vs 1-norm maps.
//
// Each panel pair is (mean |∂L/∂u| over the test set, probed column
// 1-norms), rendered as per-pixel grids. The bench prints ASCII heat maps
// and writes CSV grids for re-plotting; the per-pair Pearson correlation
// quantifies the visual match the paper describes.
#pragma once

#include <string>

#include "xbarsec/core/victim.hpp"
#include "xbarsec/data/dataset.hpp"

namespace xbarsec::core {

/// Figure 3 reads nothing beyond the scenario's dataset and victim.
struct Fig3Options {};

/// One (sensitivity map, 1-norm map) panel pair.
struct Fig3Panel {
    std::string label;
    data::ImageShape shape;
    tensor::Vector sensitivity_map;  ///< mean |∂L/∂u| over the test set
    tensor::Vector l1_map;           ///< probed column 1-norms (weight units)
    double correlation = 0.0;        ///< pearson(sensitivity_map, l1_map)
    double victim_test_accuracy = 0.0;
};

/// Produces the panel pair for an already-trained, already-deployed
/// victim; the 1-norm map is probed through `attacker` (the top of any
/// decorator stack), so defended deployments show their degraded map.
Fig3Panel run_fig3_on(Oracle& attacker, const TrainedVictim& victim, const data::Dataset& test,
                      const std::string& label);

}  // namespace xbarsec::core
