#include "xbarsec/core/table1.hpp"

#include "xbarsec/common/log.hpp"
#include "xbarsec/core/queries.hpp"
#include "xbarsec/nn/sensitivity.hpp"

namespace xbarsec::core {

Table1Row run_table1_config(const data::DataSplit& split, const std::string& dataset_name,
                            const VictimConfig& base_config, const Table1Options& options,
                            ThreadPool* pool) {
    XS_EXPECTS(options.runs >= 1);
    Table1Row row;
    row.dataset = dataset_name;
    row.activation = base_config.output.name();

    for (std::size_t run = 0; run < options.runs; ++run) {
        VictimConfig config = base_config;
        config.init_seed = options.seed + 1000 * run;
        config.train.shuffle_seed = options.seed + 1000 * run + 17;

        const TrainedVictim victim = train_victim(split, config);
        CrossbarOracle oracle = deploy_victim(victim.net, config);
        oracle.set_thread_pool(pool);

        // The attacker's view of the 1-norms: probe the deployed array.
        const sidechannel::ProbeResult probe = probe_columns(oracle);
        const tensor::Vector& l1 = probe.conductance_sums;  // weight units (oracle normalises)

        row.mean_corr_train += nn::mean_per_sample_correlation(victim.net, split.train, l1);
        row.mean_corr_test += nn::mean_per_sample_correlation(victim.net, split.test, l1);
        row.corr_of_mean_train += nn::correlation_of_mean(victim.net, split.train, l1);
        row.corr_of_mean_test += nn::correlation_of_mean(victim.net, split.test, l1);
        row.victim_test_accuracy += victim.test_accuracy;

        log::info("table1 ", dataset_name, "/", row.activation, " run ", run + 1, "/",
                  options.runs, " done (victim test acc ", victim.test_accuracy, ")");
    }

    const double inv = 1.0 / static_cast<double>(options.runs);
    row.mean_corr_train *= inv;
    row.mean_corr_test *= inv;
    row.corr_of_mean_train *= inv;
    row.corr_of_mean_test *= inv;
    row.victim_test_accuracy *= inv;
    return row;
}

Table render_table1(const std::vector<Table1Row>& rows) {
    Table t({"Dataset", "Activation", "Mean Corr (Train)", "Mean Corr (Test)",
             "Corr of Mean (Train)", "Corr of Mean (Test)", "Victim Test Acc"});
    for (const auto& r : rows) {
        t.begin_row();
        t.add(r.dataset);
        t.add(r.activation);
        t.add(r.mean_corr_train, 2);
        t.add(r.mean_corr_test, 2);
        t.add(r.corr_of_mean_train, 2);
        t.add(r.corr_of_mean_test, 2);
        t.add(r.victim_test_accuracy, 3);
    }
    return t;
}

}  // namespace xbarsec::core
