// Figure 5: surrogate-based black-box attacks with power information.
//
// For each (query count Q, power-loss weight λ) cell, across independent
// runs:
//   1. train a fresh oracle and deploy it on the crossbar;
//   2. draw Q query inputs from the training pool, record oracle outputs
//      (raw vectors or one-hot labels) and power readings;
//   3. fit a linear surrogate with Eq. 9's loss;
//   4. report the surrogate's test accuracy (panels a/d/g/j) and the
//      oracle's accuracy on FGSM(ε) adversarial examples crafted on the
//      surrogate (panels b/e/h/k);
//   5. compare each λ > 0 against λ = 0 with a two-sample t-test — the
//      significance asterisks of panels c/f/i/l.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xbarsec/common/table.hpp"
#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/core/defense.hpp"
#include "xbarsec/core/victim.hpp"
#include "xbarsec/stats/descriptive.hpp"

namespace xbarsec::core {

struct Fig5Options {
    std::vector<std::size_t> query_counts = {2, 10, 50, 100, 500, 1000, 4000};
    /// λ sweep; must contain 0 (the no-power baseline).
    std::vector<double> lambdas = {0.0, 0.002, 0.004, 0.006, 0.008, 0.01};
    std::size_t runs = 5;
    /// Raw outputs (rows 2/4) vs label-only (rows 1/3).
    bool raw_outputs = false;
    double fgsm_eps = 0.1;
    std::uint64_t seed = 2022;
    /// Adversarial evaluation subsample of the test set (0 = all).
    std::size_t eval_limit = 0;
    /// Optional pool for run-level parallelism.
    ThreadPool* pool = nullptr;
    /// Defenses deployed on each run's victim (see apply_defenses): the
    /// attacker collects queries through a session over the run's
    /// obfuscation stack, opened with the policy entries. Relative
    /// magnitudes scale to each run's deployed weights. Detector entries
    /// are not supported (no detector is enrolled per run).
    std::vector<DefenseSpec> defenses;
};

/// Aggregated results of one (λ, Q) cell.
struct Fig5Cell {
    double lambda = 0.0;
    std::size_t queries = 0;
    stats::Summary surrogate_accuracy;   ///< over runs
    stats::Summary oracle_adv_accuracy;  ///< over runs
    /// Attack-efficacy improvement vs λ=0: mean adv-acc(λ=0) − mean
    /// adv-acc(λ). Positive = the power term helps. 0 for the λ=0 cells.
    double improvement = 0.0;
    double p_value = 1.0;  ///< two-sample t-test vs λ=0 (1 for λ=0 cells)
};

struct Fig5Result {
    std::string label;
    Fig5Options options;
    std::vector<Fig5Cell> cells;  ///< ordered by (lambda, query count)
    double oracle_clean_accuracy_mean = 0.0;

    const Fig5Cell& cell(double lambda, std::size_t queries) const;
};

/// Runs the full sweep for one dataset/output configuration.
Fig5Result run_fig5(const data::DataSplit& split, const std::string& dataset_name,
                    const OutputConfig& output, const VictimConfig& base_config,
                    const Fig5Options& options);

/// Default surrogate optimisation schedule for a query count Q (exposed
/// for tests; more epochs for smaller Q).
nn::TrainConfig surrogate_schedule(std::size_t queries);

/// Data-scaled variant: additionally sets the learning rate to
/// 5 / mean_sq_input_norm (clamped to [1e-4, 0.2]) so the schedule stays
/// inside the gradient-descent stability region for any input dimension.
nn::TrainConfig surrogate_schedule(std::size_t queries, double mean_sq_input_norm);

/// Renders the three panel tables: surrogate accuracy, adversarial oracle
/// accuracy, and improvement-with-significance.
Table render_fig5_surrogate_accuracy(const Fig5Result& result);
Table render_fig5_adversarial_accuracy(const Fig5Result& result);
Table render_fig5_improvement(const Fig5Result& result);

}  // namespace xbarsec::core
