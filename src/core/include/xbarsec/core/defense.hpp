// Defenses described as data, and the one function that deploys them
// (for ScenarioRunner::deploy and run_fig5 alike). Obfuscation kinds model
// the physical device and become ObfuscatedOracle layers; the policy
// kinds belong to a client and become the attacker's SessionConfig,
// which OracleService enforces at admission.
#pragma once

#include <cstdint>
#include <vector>

#include "xbarsec/core/decorators.hpp"
#include "xbarsec/core/service.hpp"

namespace xbarsec::core {

/// One defense. Obfuscation entries become decorator layers in list order
/// (the first wraps the backend); each policy kind may appear once, since
/// a session holds one budget, one detector and one sensing-noise sigma.
struct DefenseSpec {
    enum class Kind {
        DitherPower,   ///< ObfuscatedOracle, Gaussian supply-rail dither
        UniformDummy,  ///< ObfuscatedOracle, identical per-line dummies
        RandomDummy,   ///< ObfuscatedOracle, randomised per-line dummies
        NoisyPower,    ///< SessionConfig::power_noise_sigma (sensing noise)
        QueryBudget,   ///< SessionConfig::budget
        Detector,      ///< SessionConfig::detector (current-signature screening)
    };

    Kind kind = Kind::NoisyPower;

    /// Noise σ / dummy conductance. Interpreted in weight units; when
    /// `relative` it is multiplied by max_j ‖W[:,j]‖₁ of the deployed
    /// weights (the natural scale of the leaked signal).
    double magnitude = 0.0;
    bool relative = true;
    std::uint64_t seed = 101;  ///< obfuscation seed, or the session's noise_seed

    QueryBudget budget{};  ///< Kind::QueryBudget only

    // Kind::Detector only.
    sidechannel::DetectorConfig detector{};
    bool block_flagged = false;
    std::size_t detector_enrollment = 256;  ///< clean train samples enrolled

    /// True for the kinds that become session policy, not a device layer.
    bool session_policy() const {
        return kind == Kind::NoisyPower || kind == Kind::QueryBudget || kind == Kind::Detector;
    }
};

/// max_j ‖W[:,j]‖₁ of the weights `backend` actually deployed: the scale
/// of relative defense magnitudes.
double deployed_weight_scale(const CrossbarOracle& backend);

/// Pushes one ObfuscatedOracle per obfuscation entry onto `stack` and
/// returns the SessionConfig carrying the policy entries (pass-through
/// when there are none). Relative magnitudes are multiplied by `scale`;
/// `detector` must be non-null when the list has a Detector entry.
/// Throws ConfigError when a policy kind appears twice.
SessionConfig apply_defenses(const std::vector<DefenseSpec>& defenses, DecoratorStack& stack,
                             double scale, const sidechannel::CurrentSignatureDetector* detector);

}  // namespace xbarsec::core
