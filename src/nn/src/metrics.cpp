#include "xbarsec/nn/metrics.hpp"

#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::nn {

double accuracy(const SingleLayerNet& net, const tensor::Matrix& X,
                const std::vector<int>& labels) {
    XS_EXPECTS(X.rows() == labels.size());
    XS_EXPECTS(X.rows() > 0);
    // Softmax is monotone, so argmax over pre-activations suffices; use the
    // cheaper batch path without the activation.
    const tensor::Matrix S = net.layer().forward_batch(X);
    const std::vector<int> predicted = tensor::argmax_rows(S);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (predicted[i] == labels[i]) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(labels.size());
}

double accuracy(const SingleLayerNet& net, const data::Dataset& dataset) {
    return accuracy(net, dataset.inputs(), dataset.labels());
}

}  // namespace xbarsec::nn
