#include "xbarsec/core/defense.hpp"

#include <algorithm>

#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::core {

double deployed_weight_scale(const CrossbarOracle& backend) {
    return tensor::max(
        tensor::column_abs_sums(backend.hardware_for_evaluation().effective_network().weights()));
}

void check_defenses(const std::vector<DefenseSpec>& defenses) {
    for (const DefenseSpec& d : defenses) {
        if (std::count_if(defenses.begin(), defenses.end(),
                          [&](const DefenseSpec& other) { return other.kind == d.kind; }) > 1) {
            throw ConfigError(
                "a defense list may name each kind once: one session holds one sensing noise, "
                "budget and detector, and two obfuscation entries of one kind would draw one "
                "stream twice");
        }
    }
}

SessionConfig apply_defenses(const std::vector<DefenseSpec>& defenses, CrossbarOracle& backend,
                             const sidechannel::CurrentSignatureDetector* detector) {
    using Kind = DefenseSpec::Kind;
    const double scale = deployed_weight_scale(backend);
    std::vector<ObfuscationConfig> layers;
    SessionConfig session;
    for (const DefenseSpec& d : defenses) {
        const double magnitude = d.relative ? d.magnitude * scale : d.magnitude;
        switch (d.kind) {
            case Kind::DitherPower:
            case Kind::UniformDummy:
            case Kind::RandomDummy: {
                ObfuscationConfig config;
                config.kind = d.kind == Kind::DitherPower
                                  ? ObfuscationConfig::Kind::Dither
                                  : (d.kind == Kind::UniformDummy
                                         ? ObfuscationConfig::Kind::UniformDummy
                                         : ObfuscationConfig::Kind::RandomDummy);
                config.magnitude = magnitude;
                config.seed = d.seed;
                layers.push_back(config);
                break;
            }
            case Kind::NoisyPower:
                XS_EXPECTS(magnitude >= 0.0);
                session.power_noise_sigma = magnitude;
                session.noise_seed = d.seed;
                break;
            case Kind::QueryBudget:
                session.budget = d.budget;
                break;
            case Kind::Detector:
                XS_EXPECTS_MSG(detector != nullptr,
                               "detector defense requested without an enrolled detector");
                session.detector = detector;
                session.block_flagged = d.block_flagged;
                break;
        }
    }
    backend.set_power_obfuscation(std::move(layers));
    return session;
}

}  // namespace xbarsec::core
