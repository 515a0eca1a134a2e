// Failure injection: malformed inputs, degenerate configurations, and
// misuse at module boundaries must fail loudly (typed exceptions), never
// silently corrupt results.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "xbarsec/attack/surrogate.hpp"
#include "xbarsec/core/queries.hpp"
#include "xbarsec/core/service.hpp"
#include "xbarsec/core/victim.hpp"
#include "xbarsec/data/cifar_io.hpp"
#include "xbarsec/data/idx_io.hpp"
#include "xbarsec/nn/trainer.hpp"
#include "xbarsec/sidechannel/probe.hpp"
#include "xbarsec/stats/aggregate.hpp"
#include "xbarsec/tensor/linalg.hpp"
#include "xbarsec/tensor/ops.hpp"
#include "xbarsec/xbar/crossbar.hpp"

namespace xbarsec {
namespace {

namespace fs = std::filesystem;

// ---- NaN / Inf propagation is visible, not silent -------------------------

TEST(FailureInjection, NanInputsAreDetectableViaAllFinite) {
    Rng rng(1);
    tensor::Vector u = tensor::Vector::random_uniform(rng, 8);
    u[3] = std::nan("");
    EXPECT_FALSE(tensor::all_finite(u));
    // The crossbar happily computes with NaN (it is an analog model, not a
    // validator) — the result is NaN, not a wrong-but-plausible number.
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, 4, 8);
    xbar::DeviceSpec spec;
    const xbar::Crossbar xb(map_weights(W, spec));
    EXPECT_TRUE(std::isnan(xb.total_current(u)));
}

TEST(FailureInjection, TrainingWithNanTargetsPoisonsTheLossVisibly) {
    Rng rng(2);
    const tensor::Matrix X = tensor::Matrix::random_uniform(rng, 16, 4);
    tensor::Matrix Y(16, 2, 0.0);
    Y(3, 1) = std::nan("");
    nn::SingleLayerNet net(rng, 4, 2, nn::Activation::Linear, nn::Loss::Mse);
    nn::TrainConfig tc;
    tc.epochs = 2;
    const nn::TrainHistory h = nn::train_regression(net, X, Y, tc);
    EXPECT_TRUE(std::isnan(h.final_loss()));
    EXPECT_FALSE(tensor::all_finite(net.weights()));
}

// ---- malformed binary data --------------------------------------------------

class MalformedFiles : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() / "xbarsec_failure_test";
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    std::string write_bytes(const char* name, const std::string& bytes) {
        const auto path = (dir_ / name).string();
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        return path;
    }

    fs::path dir_;
};

TEST_F(MalformedFiles, EmptyIdxFile) {
    EXPECT_THROW(data::idx::read_images(write_bytes("empty", "")), ParseError);
}

TEST_F(MalformedFiles, IdxHeaderOnlyNoDims) {
    EXPECT_THROW(data::idx::read_images(write_bytes("hdr", std::string("\0\0\x08\x03", 4))),
                 ParseError);
}

TEST_F(MalformedFiles, IdxZeroExtentImages) {
    // count=1, rows=0, cols=5 — zero extent must be rejected, not divide.
    std::string bytes("\0\0\x08\x03", 4);
    const unsigned char dims[] = {0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5};
    bytes.append(reinterpret_cast<const char*>(dims), sizeof dims);
    EXPECT_THROW(data::idx::read_images(write_bytes("zero", bytes)), ParseError);
}

TEST_F(MalformedFiles, CifarEmptyFile) {
    EXPECT_THROW(data::cifar::read_batch(write_bytes("e.bin", "")), ParseError);
}

TEST_F(MalformedFiles, DirectoryAsFileIsIoError) {
    EXPECT_THROW(data::idx::read_images(dir_.string()), Error);
}

// ---- degenerate experiment configurations -----------------------------------

TEST(FailureInjection, SurrogateOnSingleQueryStillRuns) {
    // Q = 1 is a legal (if useless) attacker budget; it must not crash.
    attack::QueryDataset q;
    q.inputs = tensor::Matrix(1, 6, 0.5);
    q.outputs = tensor::Matrix(1, 2, 1.0);
    q.power = tensor::Vector(1, 3.0);
    attack::SurrogateConfig sc;
    sc.power_loss_weight = 0.01;
    sc.train.epochs = 5;
    sc.train.batch_size = 8;  // larger than Q: clamped by the batch loop
    const attack::SurrogateTrainResult fit = attack::train_surrogate(q, sc);
    EXPECT_TRUE(tensor::all_finite(fit.surrogate.weights()));
}

TEST(FailureInjection, ProbeOnZeroWidthIsRejected) {
    EXPECT_THROW(
        sidechannel::probe_columns([](const tensor::Vector&) { return 0.0; }, 0),
        ContractViolation);
}

TEST(FailureInjection, VictimTrainingRequiresNonEmptySplits) {
    data::DataSplit empty;
    const core::VictimConfig config =
        core::VictimConfig::defaults(core::OutputConfig::softmax_ce());
    EXPECT_THROW(core::train_victim(empty, config), ContractViolation);
}

TEST(FailureInjection, QueryPlanAgainstMismatchedPoolThrows) {
    Rng rng(3);
    nn::SingleLayerNet net(rng, 8, 3, nn::Activation::Linear, nn::Loss::Mse);
    xbar::DeviceSpec spec;
    core::CrossbarOracle oracle{xbar::CrossbarNetwork(net, spec)};
    tensor::Matrix inputs(4, 5);  // wrong input dim (5 != 8)
    const data::Dataset pool(std::move(inputs), {0, 1, 2, 0}, 3, data::ImageShape{1, 5, 1});
    core::QueryPlan plan;
    EXPECT_THROW(core::collect_queries(oracle, pool, plan), ContractViolation);
}

TEST(FailureInjection, RunAggregatorUnknownKeyThrows) {
    stats::RunAggregator agg;
    agg.add("a", 1.0);
    EXPECT_THROW(agg.values("b"), ContractViolation);
    EXPECT_FALSE(agg.contains("b"));
    EXPECT_TRUE(agg.contains("a"));
}

TEST(FailureInjection, LstsqOnDuplicatedRowsThrowsCleanly) {
    // The exact situation the pinv bench guards against: with-replacement
    // query draws duplicate rows and the system loses rank.
    Rng rng(4);
    const tensor::Matrix row = tensor::Matrix::random_uniform(rng, 1, 6);
    tensor::Matrix U(8, 6);
    for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t j = 0; j < 6; ++j) U(i, j) = row(0, j);
    }
    EXPECT_THROW(tensor::lstsq(U, tensor::Matrix(8, 2, 1.0)), Error);
    // Ridge shoulders the same system without throwing.
    EXPECT_NO_THROW(tensor::ridge_solve(U, tensor::Matrix(8, 2, 1.0), 1e-6));
}

TEST(FailureInjection, CrossbarRejectsInsaneDeviceSpecsAtConstruction) {
    Rng rng(5);
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, 3, 3);
    xbar::DeviceSpec bad;
    bad.g_on_max = -1.0;
    EXPECT_THROW(map_weights(W, bad), ConfigError);
    xbar::DeviceSpec spec;
    xbar::NonIdealityConfig bad_cfg;
    bad_cfg.stuck_on_fraction = 2.0;
    EXPECT_THROW(xbar::Crossbar(map_weights(W, spec), bad_cfg), ConfigError);
}

TEST(FailureInjection, ObfuscationCannotMaskContractViolations) {
    // A defended measurement channel still surfaces dimension errors from
    // the device rather than fabricating numbers.
    Rng rng(6);
    nn::SingleLayerNet net(rng, 6, 2, nn::Activation::Linear, nn::Loss::Mse);
    xbar::DeviceSpec spec;
    core::CrossbarOracle oracle{xbar::CrossbarNetwork(net, spec)};
    core::ObfuscationConfig dither;
    dither.magnitude = 1e-9;
    dither.seed = 1;
    oracle.set_power_obfuscation({dither});
    EXPECT_THROW(oracle.query_power(tensor::Vector(3, 1.0)), ContractViolation);
    EXPECT_THROW(oracle.query_power_batch(tensor::Matrix(2, 3, 1.0)), ContractViolation);
}

TEST(FailureInjection, DeniedOracleChannelsAbortQueryCollection) {
    Rng rng(7);
    nn::SingleLayerNet net(rng, 6, 2, nn::Activation::Linear, nn::Loss::Mse);
    xbar::DeviceSpec spec;
    core::CrossbarOracle oracle{xbar::CrossbarNetwork(net, spec)};
    core::OracleService service(oracle);
    core::SessionConfig closed;
    closed.expose_power = false;
    core::Session session = service.open_session(closed);
    tensor::Matrix inputs(4, 6, 0.5);
    const data::Dataset pool(std::move(inputs), {0, 1, 0, 1}, 2, data::ImageShape{1, 6, 1});
    core::QueryPlan plan;
    plan.count = 2;
    plan.record_power = true;  // needs the denied channel
    EXPECT_THROW(core::collect_queries(session, pool, plan), core::AccessDenied);
}

}  // namespace
}  // namespace xbarsec
