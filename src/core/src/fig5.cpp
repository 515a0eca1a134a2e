#include "xbarsec/core/fig5.hpp"

#include <algorithm>
#include <mutex>

#include "xbarsec/attack/fgsm.hpp"
#include "xbarsec/attack/surrogate.hpp"
#include "xbarsec/common/error.hpp"
#include "xbarsec/common/log.hpp"
#include "xbarsec/core/queries.hpp"
#include "xbarsec/nn/metrics.hpp"
#include "xbarsec/stats/aggregate.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::core {

nn::TrainConfig surrogate_schedule(std::size_t queries) {
    XS_EXPECTS(queries >= 1);
    nn::TrainConfig tc;
    // Smaller query sets need more passes to converge; the cost of an
    // epoch scales with Q so the total work stays roughly bounded.
    tc.epochs = std::clamp<std::size_t>(40000 / queries, 30, 150);
    tc.batch_size = std::min<std::size_t>(32, queries);
    tc.learning_rate = 0.05;
    tc.momentum = 0.9;
    tc.final_lr_fraction = 0.1;
    return tc;
}

nn::TrainConfig surrogate_schedule(std::size_t queries, double mean_sq_input_norm) {
    nn::TrainConfig tc = surrogate_schedule(queries);
    tc.learning_rate = std::clamp(5.0 / std::max(1.0, mean_sq_input_norm), 1e-4, 0.2);
    return tc;
}

const Fig5Cell& Fig5Result::cell(double lambda, std::size_t queries) const {
    for (const auto& c : cells) {
        if (c.lambda == lambda && c.queries == queries) return c;
    }
    throw ConfigError("no Fig5 cell for the requested (lambda, queries)");
}

namespace {

/// Per-run measurements for every (λ, Q) pair, gathered in run order.
struct RunOutput {
    std::vector<double> surrogate_acc;  ///< indexed by (λ_idx * |Q| + q_idx)
    std::vector<double> adv_acc;
    double clean_acc = 0.0;
};

RunOutput execute_run(std::size_t run, const data::DataSplit& split, const OutputConfig& output,
                      const VictimConfig& base_config, const Fig5Options& options) {
    VictimConfig config = base_config;
    config.output = output;
    config.init_seed = options.seed + 10007 * run;
    config.train.shuffle_seed = options.seed + 10007 * run + 31;

    const TrainedVictim victim = train_victim(split, config);
    CrossbarOracle backend = deploy_victim(victim.net, config);
    // The shared pool also serves each run's batched oracle queries: the
    // kernel layer is bit-identical under any partition, and nested
    // parallel_for is safe (the calling thread drains tasks), so this
    // composes with the run-level parallel_for below.
    backend.set_thread_pool(options.pool);
    // The attacker queries through a session over this run's stack (a
    // pass-through session when there are no defenses).
    DecoratorStack stack(backend);
    const SessionConfig attacker =
        apply_defenses(options.defenses, stack, deployed_weight_scale(backend), nullptr);
    OracleService service(stack.top());
    Session session = service.open_session(attacker);
    Oracle& oracle = session.oracle();  // what the attacker sees
    const nn::SingleLayerNet deployed = backend.hardware_for_evaluation().effective_network();

    const data::Dataset eval_set =
        options.eval_limit > 0 ? split.test.take(options.eval_limit) : split.test;

    RunOutput out;
    out.surrogate_acc.resize(options.lambdas.size() * options.query_counts.size(), 0.0);
    out.adv_acc.resize(options.lambdas.size() * options.query_counts.size(), 0.0);
    out.clean_acc = nn::accuracy(deployed, eval_set);

    for (std::size_t qi = 0; qi < options.query_counts.size(); ++qi) {
        const std::size_t Q = options.query_counts[qi];
        QueryPlan plan;
        plan.count = Q;
        plan.raw_outputs = options.raw_outputs;
        plan.record_power = true;
        plan.seed = options.seed + 7919 * run + qi;
        const attack::QueryDataset queries = collect_queries(oracle, split.train, plan);

        const double mean_sq_norm = tensor::mean_squared_row_norm(queries.inputs, 512);
        for (std::size_t li = 0; li < options.lambdas.size(); ++li) {
            attack::SurrogateConfig sc;
            sc.power_loss_weight = options.lambdas[li];
            sc.train = surrogate_schedule(Q, mean_sq_norm);
            sc.train.shuffle_seed = options.seed + 7919 * run + 100 * li + qi;
            sc.init_seed = options.seed + 54321 * run + 100 * li + qi;

            const attack::SurrogateTrainResult fit = attack::train_surrogate(queries, sc);

            const std::size_t idx = li * options.query_counts.size() + qi;
            out.surrogate_acc[idx] = nn::accuracy(fit.surrogate, split.test);

            const tensor::Matrix adv = attack::fgsm_attack_batch(
                fit.surrogate, eval_set.inputs(), eval_set.labels(), eval_set.num_classes(),
                options.fgsm_eps);
            out.adv_acc[idx] = nn::accuracy(deployed, adv, eval_set.labels());
        }
    }
    return out;
}

}  // namespace

Fig5Result run_fig5(const data::DataSplit& split, const std::string& dataset_name,
                    const OutputConfig& output, const VictimConfig& base_config,
                    const Fig5Options& options) {
    XS_EXPECTS(options.runs >= 2);
    XS_EXPECTS(!options.query_counts.empty());
    XS_EXPECTS_MSG(std::find(options.lambdas.begin(), options.lambdas.end(), 0.0) !=
                       options.lambdas.end(),
                   "the lambda sweep must include the λ=0 baseline");

    Fig5Result result;
    result.label = dataset_name + "/" + output.name() + (options.raw_outputs ? "/raw" : "/label");
    result.options = options;

    std::vector<RunOutput> runs(options.runs);
    std::mutex log_mutex;
    auto body = [&](std::size_t run) {
        runs[run] = execute_run(run, split, output, base_config, options);
        std::lock_guard lock(log_mutex);
        log::info("fig5 ", result.label, " run ", run + 1, "/", options.runs, " done");
    };
    if (options.pool != nullptr) {
        parallel_for(*options.pool, options.runs, body);
    } else {
        for (std::size_t run = 0; run < options.runs; ++run) body(run);
    }

    // Aggregate across runs.
    stats::RunAggregator agg;
    double clean_acc = 0.0;
    for (const auto& run : runs) {
        clean_acc += run.clean_acc;
        for (std::size_t li = 0; li < options.lambdas.size(); ++li) {
            for (std::size_t qi = 0; qi < options.query_counts.size(); ++qi) {
                const std::size_t idx = li * options.query_counts.size() + qi;
                const std::string key = std::to_string(li) + "|" + std::to_string(qi);
                agg.add("sur|" + key, run.surrogate_acc[idx]);
                agg.add("adv|" + key, run.adv_acc[idx]);
            }
        }
    }
    result.oracle_clean_accuracy_mean = clean_acc / static_cast<double>(options.runs);

    const auto baseline_it = std::find(options.lambdas.begin(), options.lambdas.end(), 0.0);
    const auto baseline_li = static_cast<std::size_t>(baseline_it - options.lambdas.begin());

    for (std::size_t li = 0; li < options.lambdas.size(); ++li) {
        for (std::size_t qi = 0; qi < options.query_counts.size(); ++qi) {
            const std::string key = std::to_string(li) + "|" + std::to_string(qi);
            const std::string base_key =
                std::to_string(baseline_li) + "|" + std::to_string(qi);
            Fig5Cell cell;
            cell.lambda = options.lambdas[li];
            cell.queries = options.query_counts[qi];
            cell.surrogate_accuracy = agg.summary("sur|" + key);
            cell.oracle_adv_accuracy = agg.summary("adv|" + key);
            if (li != baseline_li) {
                const auto test = agg.compare("adv|" + base_key, "adv|" + key);
                // Positive improvement: the power-aided surrogate drives the
                // oracle's adversarial accuracy lower than the baseline does.
                cell.improvement = test.mean_a - test.mean_b;
                cell.p_value = test.p_value;
            }
            result.cells.push_back(cell);
        }
    }
    return result;
}

namespace {

Table render_metric(const Fig5Result& result, bool adversarial) {
    std::vector<std::string> header{"lambda \\ Q"};
    for (const std::size_t q : result.options.query_counts) header.push_back(std::to_string(q));
    Table t(std::move(header));
    for (const double lambda : result.options.lambdas) {
        t.begin_row();
        t.add(Table::format_number(lambda, 4));
        for (const std::size_t q : result.options.query_counts) {
            const Fig5Cell& c = result.cell(lambda, q);
            const stats::Summary& s =
                adversarial ? c.oracle_adv_accuracy : c.surrogate_accuracy;
            t.add(Table::format_number(s.mean, 4) + "±" + Table::format_number(s.stddev, 4));
        }
    }
    return t;
}

}  // namespace

Table render_fig5_surrogate_accuracy(const Fig5Result& result) {
    return render_metric(result, /*adversarial=*/false);
}

Table render_fig5_adversarial_accuracy(const Fig5Result& result) {
    return render_metric(result, /*adversarial=*/true);
}

Table render_fig5_improvement(const Fig5Result& result) {
    std::vector<std::string> header{"lambda \\ Q"};
    for (const std::size_t q : result.options.query_counts) header.push_back(std::to_string(q));
    Table t(std::move(header));
    for (const double lambda : result.options.lambdas) {
        if (lambda == 0.0) continue;  // baseline row is identically zero
        t.begin_row();
        t.add(Table::format_number(lambda, 4));
        for (const std::size_t q : result.options.query_counts) {
            const Fig5Cell& c = result.cell(lambda, q);
            std::string cell = Table::format_number(c.improvement, 4);
            if (c.p_value < 0.05) cell += " *";
            t.add(std::move(cell));
        }
    }
    return t;
}

}  // namespace xbarsec::core
