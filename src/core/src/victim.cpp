#include "xbarsec/core/victim.hpp"

#include <algorithm>

#include "xbarsec/nn/metrics.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::core {

VictimConfig VictimConfig::defaults(OutputConfig output_config) {
    VictimConfig c;
    c.output = output_config;
    c.train.epochs = 20;
    c.train.batch_size = 32;
    // Heavy-ball stability: lr*lambda_max < 2(1+beta). With momentum 0.9 and
    // MNIST/CIFAR-scale inputs the MSE Hessian scale (2/M * ||x||^2) caps the
    // usable lr around ~0.2; 0.1 converges for both output configurations.
    c.train.learning_rate = 0.1;
    c.train.momentum = 0.9;
    c.train.final_lr_fraction = 0.1;
    c.train.shuffle_seed = 77;
    return c;
}

TrainedVictim train_victim(const data::DataSplit& split, const VictimConfig& config) {
    XS_EXPECTS(split.train.size() > 0 && split.test.size() > 0);
    Rng init_rng(config.init_seed);
    TrainedVictim victim{
        nn::SingleLayerNet(init_rng, split.train.input_dim(), split.train.num_classes(),
                           config.output.activation, config.output.loss, /*with_bias=*/false),
        0.0, 0.0};
    nn::TrainConfig train_config = config.train;
    if (config.auto_lr) {
        const double msn =
            std::max(1.0, tensor::mean_squared_row_norm(split.train.inputs(), 512));
        // The MSE loss carries a 2/M gradient factor, so its curvature is
        // ~half the crossentropy case at matched data; give it double the
        // numerator (both stay well inside the heavy-ball bound).
        const double numerator =
            config.output.loss == nn::Loss::Mse ? 2.0 * config.lr_numerator : config.lr_numerator;
        train_config.learning_rate = numerator / msn;
    }
    nn::train(victim.net, split.train, train_config);
    victim.train_accuracy = nn::accuracy(victim.net, split.train);
    victim.test_accuracy = nn::accuracy(victim.net, split.test);
    return victim;
}

CrossbarOracle deploy_victim(const nn::SingleLayerNet& net, const VictimConfig& config) {
    xbar::CrossbarNetwork hardware(net, config.device, config.nonideal);
    return CrossbarOracle(std::move(hardware));
}

std::vector<CrossbarOracle> deploy_victim_fleet(const nn::SingleLayerNet& net,
                                                const VictimConfig& config,
                                                std::size_t replicas) {
    XS_EXPECTS(replicas > 0);
    std::vector<CrossbarOracle> fleet;
    fleet.reserve(replicas);
    for (std::size_t r = 0; r < replicas; ++r) {
        xbar::NonIdealityConfig nonideal = config.nonideal;
        nonideal.seed = xbar::replica_variation_seed(config.nonideal.seed, r);
        xbar::MappingOptions mapping;
        mapping.noise_seed = xbar::replica_variation_seed(mapping.noise_seed, r);
        fleet.emplace_back(xbar::CrossbarNetwork(net, config.device, nonideal, mapping));
    }
    return fleet;
}

}  // namespace xbarsec::core
