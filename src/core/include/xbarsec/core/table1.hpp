// Table I: correlation between loss-sensitivity magnitude and the column
// 1-norms leaked by the power side channel.
//
// For each (dataset, activation) configuration the paper reports four
// numbers, each averaged over 5 independent runs:
//   * Mean Correlation (train/test): the average over samples of
//     pearson(|∂L/∂u| for one sample, ‖W[:,j]‖₁);
//   * Correlation of Mean (train/test): pearson(E[|∂L/∂u|], ‖W[:,j]‖₁).
// The 1-norms come from probing the deployed crossbar, not from reading
// the weights — the experiment exercises the full side channel.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xbarsec/common/table.hpp"
#include "xbarsec/core/victim.hpp"
#include "xbarsec/data/dataset.hpp"

namespace xbarsec::core {

struct Table1Options {
    std::size_t runs = 5;
    std::uint64_t seed = 2022;
};

/// One row of Table I (already averaged over runs).
struct Table1Row {
    std::string dataset;
    std::string activation;
    double mean_corr_train = 0.0;
    double mean_corr_test = 0.0;
    double corr_of_mean_train = 0.0;
    double corr_of_mean_test = 0.0;
    double victim_test_accuracy = 0.0;  ///< extra context, not in the paper's table
};

/// Runs one (dataset, activation) configuration: each run trains
/// `base_config` under its own seeds. `pool` (optional) serves each run's
/// batched probe queries (runs stay serial: the row accumulates across
/// them in run order).
Table1Row run_table1_config(const data::DataSplit& split, const std::string& dataset_name,
                            const VictimConfig& base_config, const Table1Options& options,
                            ThreadPool* pool = nullptr);

/// Renders rows in the paper's layout.
Table render_table1(const std::vector<Table1Row>& rows);

}  // namespace xbarsec::core
