// Evaluation metrics.
#pragma once

#include "xbarsec/data/dataset.hpp"
#include "xbarsec/nn/network.hpp"

namespace xbarsec::nn {

/// Fraction of dataset samples whose argmax prediction equals the label.
double accuracy(const SingleLayerNet& net, const data::Dataset& dataset);

/// Accuracy on an explicit (inputs, labels) pair; rows of X align with
/// labels. Used for adversarial test sets where inputs were perturbed.
double accuracy(const SingleLayerNet& net, const tensor::Matrix& X, const std::vector<int>& labels);

/// Row = true class, column = predicted class, counts.
tensor::Matrix confusion_matrix(const SingleLayerNet& net, const data::Dataset& dataset);

}  // namespace xbarsec::nn
