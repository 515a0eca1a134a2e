// Crossbar simulator tests: Eq. 3 MVM, Eq. 5 total current, power, and
// the non-ideality models.
#include <gtest/gtest.h>

#include <cmath>

#include "xbarsec/common/error.hpp"
#include "xbarsec/stats/descriptive.hpp"
#include "xbarsec/tensor/ops.hpp"
#include "xbarsec/xbar/crossbar.hpp"

namespace xbarsec::xbar {
namespace {

DeviceSpec ideal_spec() {
    DeviceSpec s;
    s.g_on_max = 100e-6;
    return s;
}

Crossbar make_ideal(const tensor::Matrix& W) {
    return Crossbar(map_weights(W, ideal_spec()));
}

TEST(NonIdealityConfig, Validation) {
    NonIdealityConfig c;
    EXPECT_NO_THROW(c.validate());
    EXPECT_TRUE(c.ideal());
    c.read_noise_std = -1.0;
    EXPECT_THROW(c.validate(), ConfigError);
    c = {};
    c.stuck_on_fraction = 0.7;
    c.stuck_off_fraction = 0.7;  // sums above 1
    EXPECT_THROW(c.validate(), ConfigError);
    c = {};
    c.line_resistance = -5.0;
    EXPECT_THROW(c.validate(), ConfigError);
}

TEST(Crossbar, IdealMvmEqualsWeightMatrixProduct) {
    Rng rng(1);
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, 10, 17);
    const Crossbar xbar = make_ideal(W);
    const tensor::Vector u = tensor::Vector::random_uniform(rng, 17);
    const tensor::Vector s = xbar.mvm(u);
    const tensor::Vector expected = tensor::matvec(W, u);
    for (std::size_t i = 0; i < s.size(); ++i) EXPECT_NEAR(s[i], expected[i], 1e-9);
}

TEST(Crossbar, OutputCurrentsScaleWithConductance) {
    const tensor::Matrix W{{1.0}};
    const Crossbar xbar = make_ideal(W);
    const tensor::Vector i_s = xbar.output_currents(tensor::Vector{1.0});
    EXPECT_NEAR(i_s[0], 100e-6, 1e-15);  // w_max → g_on_max at 1 V
}

TEST(Crossbar, TotalCurrentImplementsEq5) {
    Rng rng(2);
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, 8, 6);
    const Crossbar xbar = make_ideal(W);
    const tensor::Vector u = tensor::Vector::random_uniform(rng, 6);
    const double i_total = xbar.total_current(u);
    // Eq. 5: Σ_j u_j·G_j with G_j the per-column conductance sums.
    const tensor::Vector g = xbar.column_conductances();
    double expected = 0.0;
    for (std::size_t j = 0; j < 6; ++j) expected += u[j] * g[j];
    EXPECT_NEAR(i_total, expected, 1e-15);
}

TEST(Crossbar, BasisProbeRevealsColumnL1) {
    // The core side-channel identity: i_total(V·e_j)/V = G_j ∝ ‖W[:,j]‖₁.
    Rng rng(3);
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, 5, 9);
    const Crossbar xbar = make_ideal(W);
    const tensor::Vector l1 = tensor::column_abs_sums(W);
    for (std::size_t j = 0; j < 9; ++j) {
        const double i = xbar.total_current(tensor::Vector::basis(9, j, 0.5));
        EXPECT_NEAR(i / 0.5, l1[j] * xbar.program().weight_scale, 1e-15);
    }
}

TEST(Crossbar, StaticPowerIsVSquaredG) {
    Rng rng(4);
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, 4, 3);
    const Crossbar xbar = make_ideal(W);
    const tensor::Vector u{0.5, 1.0, 0.25};
    const tensor::Vector g = xbar.column_conductances();
    double expected = 0.0;
    for (std::size_t j = 0; j < 3; ++j) expected += u[j] * u[j] * g[j];
    EXPECT_NEAR(xbar.static_power(u), expected, 1e-15);
    // Power ≤ current at sub-unit voltages (v² ≤ v for v ∈ [0,1]).
    EXPECT_LE(xbar.static_power(u), xbar.total_current(u) + 1e-18);
}

TEST(Crossbar, MeasurementCounterAdvances) {
    const tensor::Matrix W{{1.0, -1.0}};
    const Crossbar xbar = make_ideal(W);
    EXPECT_EQ(xbar.measurement_count(), 0u);
    xbar.total_current(tensor::Vector{1, 0});
    xbar.output_currents(tensor::Vector{1, 0});
    xbar.static_power(tensor::Vector{1, 0});
    EXPECT_EQ(xbar.measurement_count(), 3u);
}

TEST(Crossbar, ReadNoiseHasConfiguredSpread) {
    Rng rng(6);
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, 6, 6);
    NonIdealityConfig nonideal;
    nonideal.read_noise_std = 0.05;
    nonideal.seed = 99;
    const Crossbar xbar(map_weights(W, ideal_spec()), nonideal);
    const tensor::Vector u(6, 1.0);

    const Crossbar clean(map_weights(W, ideal_spec()));
    const double truth = clean.total_current(u);

    std::vector<double> readings(400);
    for (auto& r : readings) r = xbar.total_current(u);
    const stats::Summary s = stats::summarize(readings);
    EXPECT_NEAR(s.mean, truth, 0.01 * std::abs(truth));
    EXPECT_NEAR(s.stddev / std::abs(truth), 0.05, 0.01);
}

TEST(Crossbar, ReadNoiseIsFreshPerMeasurement) {
    const tensor::Matrix W{{1.0}};
    NonIdealityConfig nonideal;
    nonideal.read_noise_std = 0.1;
    const Crossbar xbar(map_weights(W, ideal_spec()), nonideal);
    const tensor::Vector u{1.0};
    EXPECT_NE(xbar.total_current(u), xbar.total_current(u));
}

TEST(Crossbar, StuckFaultsChangeProgrammedArrays) {
    Rng rng(7);
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, 20, 20);
    NonIdealityConfig nonideal;
    nonideal.stuck_on_fraction = 0.1;
    nonideal.stuck_off_fraction = 0.1;
    nonideal.seed = 5;
    const Crossbar faulty(map_weights(W, ideal_spec()), nonideal);
    const tensor::Matrix W_eff = faulty.effective_weights();
    // Some weights must deviate from the programmed values...
    double dev = 0.0;
    for (std::size_t i = 0; i < 20; ++i)
        for (std::size_t j = 0; j < 20; ++j) dev += std::abs(W_eff(i, j) - W(i, j));
    EXPECT_GT(dev, 0.1);
    // ...and the fault pattern is seed-deterministic.
    const Crossbar faulty2(map_weights(W, ideal_spec()), nonideal);
    EXPECT_EQ(faulty.effective_weights(), faulty2.effective_weights());
}

TEST(Crossbar, AllStuckOffZeroesTheArray) {
    Rng rng(8);
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, 4, 4);
    NonIdealityConfig nonideal;
    nonideal.stuck_off_fraction = 1.0;
    const Crossbar dead(map_weights(W, ideal_spec()), nonideal);
    EXPECT_NEAR(tensor::frobenius_norm(dead.effective_weights()), 0.0, 1e-15);
}

TEST(Crossbar, IrDropAttenuatesAndIsMonotoneInResistance) {
    Rng rng(9);
    const tensor::Matrix W = tensor::Matrix::random_uniform(rng, 12, 12, 0.1, 1.0);
    const tensor::Vector u(12, 1.0);
    const double ideal_current = make_ideal(W).total_current(u);
    double prev = ideal_current;
    for (const double r_line : {10.0, 100.0, 1000.0}) {
        NonIdealityConfig nonideal;
        nonideal.line_resistance = r_line;
        const Crossbar xbar(map_weights(W, ideal_spec()), nonideal);
        const double current = xbar.total_current(u);
        EXPECT_LT(current, prev) << "r_line=" << r_line;
        EXPECT_GT(current, 0.0);
        prev = current;
    }
}

TEST(Crossbar, InputSizeIsChecked) {
    const tensor::Matrix W{{1.0, 2.0}};
    const Crossbar xbar = make_ideal(W);
    EXPECT_THROW(xbar.total_current(tensor::Vector{1.0}), ContractViolation);
    EXPECT_THROW(xbar.mvm(tensor::Vector{1.0, 2.0, 3.0}), ContractViolation);
}

}  // namespace
}  // namespace xbarsec::xbar
