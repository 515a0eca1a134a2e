#include "xbarsec/core/queries.hpp"

#include <algorithm>

namespace xbarsec::core {

attack::QueryDataset collect_queries(Oracle& oracle, const data::Dataset& pool,
                                     const QueryPlan& plan) {
    XS_EXPECTS(plan.count > 0);
    XS_EXPECTS(pool.size() > 0);
    XS_EXPECTS(pool.input_dim() == oracle.inputs());

    Rng rng(plan.seed);
    // Without replacement while the pool lasts; extra draws (Q > pool) are
    // uniform with replacement — the attacker reuses inputs.
    std::vector<std::size_t> picks;
    picks.reserve(plan.count);
    {
        const std::size_t head = std::min(plan.count, pool.size());
        picks = sample_without_replacement(rng, pool.size(), head);
        while (picks.size() < plan.count) {
            picks.push_back(static_cast<std::size_t>(rng.below(pool.size())));
        }
    }

    attack::QueryDataset q;
    q.inputs = tensor::Matrix(plan.count, pool.input_dim());
    for (std::size_t r = 0; r < plan.count; ++r) {
        const auto src = pool.inputs().row_span(picks[r]);
        auto dst = q.inputs.row_span(r);
        std::copy(src.begin(), src.end(), dst.begin());
    }

    if (plan.raw_outputs) {
        q.outputs = oracle.query_raw_batch(q.inputs);
    } else {
        q.outputs = tensor::Matrix(plan.count, oracle.outputs(), 0.0);
        const std::vector<int> labels = oracle.query_labels(q.inputs);
        for (std::size_t r = 0; r < plan.count; ++r) {
            q.outputs(r, static_cast<std::size_t>(labels[r])) = 1.0;
        }
    }
    q.power = plan.record_power ? oracle.query_power_batch(q.inputs)
                                : tensor::Vector(plan.count, 0.0);
    return q;
}

sidechannel::ProbeResult probe_columns(Oracle& oracle, const sidechannel::ProbeOptions& options) {
    // Basis batches ride the oracle's batched power path instead of
    // issuing one query_power at a time.
    return sidechannel::probe_columns_batch(
        [&oracle](const tensor::Matrix& V) { return oracle.query_power_batch(V); },
        oracle.inputs(), options);
}

sidechannel::SearchResult find_argmax(Oracle& oracle, const data::ImageShape& shape,
                                      sidechannel::SearchStrategy strategy,
                                      const sidechannel::SearchOptions& options) {
    XS_EXPECTS(shape.pixels() == oracle.inputs());
    const sidechannel::FieldFn field = [&oracle](std::size_t j) {
        return oracle.query_power(tensor::Vector::basis(oracle.inputs(), j));
    };
    return sidechannel::find_argmax(field, shape, strategy, options);
}

}  // namespace xbarsec::core
