// Smoke tests for the experiment runners behind the benches (tiny
// datasets, minimal runs) plus rendering checks.
#include <gtest/gtest.h>

#include <filesystem>

#include "xbarsec/core/fig3.hpp"
#include "xbarsec/core/fig4.hpp"
#include "xbarsec/core/fig5.hpp"
#include "xbarsec/core/report.hpp"
#include "xbarsec/core/table1.hpp"
#include "xbarsec/data/synthetic_mnist.hpp"

namespace xbarsec::core {
namespace {

const data::DataSplit& tiny_split() {
    static const data::DataSplit split = [] {
        data::SyntheticMnistConfig dc;
        dc.train_count = 400;
        dc.test_count = 120;
        return data::make_synthetic_mnist(dc);
    }();
    return split;
}

VictimConfig quick_victim(OutputConfig output) {
    VictimConfig c = VictimConfig::defaults(output);
    c.train.epochs = 6;
    return c;
}

/// Trains and deploys a quick victim, then produces its Figure 3 panel pair.
Fig3Panel fig3_panel(OutputConfig output) {
    const VictimConfig config = quick_victim(output);
    const TrainedVictim victim = train_victim(tiny_split(), config);
    CrossbarOracle oracle = deploy_victim(victim.net, config);
    return run_fig3_on(oracle, victim, tiny_split().test, "mnist-like/" + output.name());
}

TEST(Table1Runner, ProducesPlausibleCorrelations) {
    Table1Options options;
    options.runs = 2;
    options.victim = quick_victim(OutputConfig::softmax_ce());
    const Table1Row row =
        run_table1_config(tiny_split(), "mnist-like", OutputConfig::softmax_ce(), options);
    EXPECT_EQ(row.dataset, "mnist-like");
    EXPECT_EQ(row.activation, "softmax");
    // Directional expectations from the paper: all positive, and the
    // correlation-of-mean dominates the per-sample mean correlation.
    EXPECT_GT(row.mean_corr_test, 0.0);
    EXPECT_GT(row.corr_of_mean_test, row.mean_corr_test);
    EXPECT_LE(row.corr_of_mean_test, 1.0);
    EXPECT_GT(row.victim_test_accuracy, 0.5);
}

TEST(Table1Runner, RenderHasFourMetricColumns) {
    Table1Row row;
    row.dataset = "d";
    row.activation = "linear";
    row.mean_corr_train = 0.1;
    const Table t = render_table1({row});
    EXPECT_EQ(t.rows(), 1u);
    EXPECT_EQ(t.columns(), 7u);
    EXPECT_NE(t.to_markdown().find("Corr of Mean"), std::string::npos);
}

TEST(Fig3Runner, MapsHaveImageShapeAndCorrelate) {
    const Fig3Panel panel = fig3_panel(OutputConfig::softmax_ce());
    EXPECT_EQ(panel.sensitivity_map.size(), 784u);
    EXPECT_EQ(panel.l1_map.size(), 784u);
    EXPECT_GT(panel.correlation, 0.3);
    EXPECT_EQ(panel.shape.height, 28u);
}

TEST(Fig3Runner, AsciiHeatmapRendersGrid) {
    const Fig3Panel panel = fig3_panel(OutputConfig::linear_mse());
    const std::string art = render_ascii_heatmap(panel.l1_map, panel.shape);
    // 28 lines of 28 characters.
    EXPECT_EQ(art.size(), 28u * 29u);
}

TEST(Fig3Runner, GridCsvWrites) {
    const Fig3Panel panel = fig3_panel(OutputConfig::linear_mse());
    const auto path = std::filesystem::temp_directory_path() / "xbarsec_fig3_test.csv";
    write_grid_csv(path.string(), panel.l1_map, panel.shape);
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_GT(std::filesystem::file_size(path), 784u);  // at least one char/pixel
    std::filesystem::remove(path);
}

TEST(Fig4Runner, SeriesCoverMethodsAndStrengths) {
    const VictimConfig config = quick_victim(OutputConfig::softmax_ce());
    const TrainedVictim victim = train_victim(tiny_split(), config);
    CrossbarOracle oracle = deploy_victim(victim.net, config);
    Fig4Options options;
    options.strengths = {0.0, 5.0, 10.0};
    const Fig4Result r = run_fig4_on(oracle, oracle.hardware_for_evaluation(),
                                     tiny_split().test.take(80), "mnist-like/softmax", options);
    ASSERT_EQ(r.series.size(), 5u);
    for (const auto& s : r.series) {
        ASSERT_EQ(s.accuracy.size(), 3u);
        // Strength 0 must equal the clean accuracy for every method.
        EXPECT_NEAR(s.accuracy[0], r.clean_accuracy, 1e-12);
    }
    const Table t = render_fig4(r);
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.columns(), 6u);
}

TEST(Fig5Runner, ScheduleScalesWithQueries) {
    const nn::TrainConfig small = surrogate_schedule(2);
    const nn::TrainConfig large = surrogate_schedule(5000);
    EXPECT_GT(small.epochs, large.epochs);
    EXPECT_EQ(small.batch_size, 2u);
    EXPECT_EQ(large.batch_size, 32u);
}

TEST(Fig5Runner, MiniatureSweepAggregatesAndTests) {
    Fig5Options options;
    options.query_counts = {10, 100};
    options.lambdas = {0.0, 0.005};
    options.runs = 2;
    options.raw_outputs = true;
    options.eval_limit = 60;
    const Fig5Result r = run_fig5(tiny_split(), "mnist-like", OutputConfig::linear_mse(),
                                  quick_victim(OutputConfig::linear_mse()), options);
    EXPECT_EQ(r.cells.size(), 4u);
    const Fig5Cell& cell = r.cell(0.005, 100);
    EXPECT_EQ(cell.oracle_adv_accuracy.count, 2u);
    EXPECT_GE(cell.p_value, 0.0);
    EXPECT_LE(cell.p_value, 1.0);
    // λ=0 cells carry no improvement/test.
    EXPECT_DOUBLE_EQ(r.cell(0.0, 10).improvement, 0.0);
    EXPECT_DOUBLE_EQ(r.cell(0.0, 10).p_value, 1.0);
    // Surrogate accuracy at Q=100 beats Q=10 for the baseline.
    EXPECT_GT(r.cell(0.0, 100).surrogate_accuracy.mean,
              r.cell(0.0, 10).surrogate_accuracy.mean);

    EXPECT_FALSE(render_fig5_surrogate_accuracy(r).to_markdown().empty());
    EXPECT_FALSE(render_fig5_adversarial_accuracy(r).to_markdown().empty());
    const Table imp = render_fig5_improvement(r);
    EXPECT_EQ(imp.rows(), 1u);  // only the λ=0.005 row
    EXPECT_THROW(r.cell(0.42, 10), ConfigError);
}

TEST(Fig5Runner, ValidatesOptions) {
    Fig5Options options;
    options.lambdas = {0.005};  // missing the λ=0 baseline
    options.runs = 2;
    EXPECT_THROW(run_fig5(tiny_split(), "x", OutputConfig::linear_mse(),
                          quick_victim(OutputConfig::linear_mse()), options),
                 ContractViolation);
}

TEST(ReportHelpers, ResultsDirHonoursEnvironment) {
    // Default name without the env var.
    unsetenv("XBARSEC_RESULTS_DIR");
    EXPECT_EQ(results_dir(), "bench_results");
    setenv("XBARSEC_RESULTS_DIR", "/tmp/xbarsec_alt", 1);
    EXPECT_EQ(results_dir(), "/tmp/xbarsec_alt");
    unsetenv("XBARSEC_RESULTS_DIR");
}

}  // namespace
}  // namespace xbarsec::core
