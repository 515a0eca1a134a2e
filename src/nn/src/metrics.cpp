#include "xbarsec/nn/metrics.hpp"

#include <algorithm>

#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::nn {

namespace {

/// Argmax per row of a batch output.
std::vector<int> batch_argmax(const tensor::Matrix& Y) {
    std::vector<int> labels(Y.rows());
    for (std::size_t r = 0; r < Y.rows(); ++r) {
        const auto row = Y.row_span(r);
        labels[r] = static_cast<int>(std::max_element(row.begin(), row.end()) - row.begin());
    }
    return labels;
}

}  // namespace

double accuracy(const SingleLayerNet& net, const tensor::Matrix& X,
                const std::vector<int>& labels) {
    XS_EXPECTS(X.rows() == labels.size());
    XS_EXPECTS(X.rows() > 0);
    // Softmax is monotone, so argmax over pre-activations suffices; use the
    // cheaper batch path without the activation.
    const tensor::Matrix S = net.layer().forward_batch(X);
    const std::vector<int> predicted = batch_argmax(S);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (predicted[i] == labels[i]) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(labels.size());
}

double accuracy(const SingleLayerNet& net, const data::Dataset& dataset) {
    return accuracy(net, dataset.inputs(), dataset.labels());
}

tensor::Matrix confusion_matrix(const SingleLayerNet& net, const data::Dataset& dataset) {
    const std::size_t classes = dataset.num_classes();
    tensor::Matrix cm(classes, classes, 0.0);
    const tensor::Matrix S = net.layer().forward_batch(dataset.inputs());
    const std::vector<int> predicted = batch_argmax(S);
    for (std::size_t i = 0; i < dataset.size(); ++i) {
        cm(static_cast<std::size_t>(dataset.label(i)), static_cast<std::size_t>(predicted[i])) +=
            1.0;
    }
    return cm;
}

}  // namespace xbarsec::nn
