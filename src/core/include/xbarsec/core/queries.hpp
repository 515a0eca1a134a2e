// Attacker query collection for the Section-IV surrogate pipeline, plus
// the Oracle-based bridge into the sidechannel column probe.
#pragma once

#include <cstdint>

#include "xbarsec/attack/surrogate.hpp"
#include "xbarsec/core/oracle.hpp"
#include "xbarsec/data/dataset.hpp"
#include "xbarsec/sidechannel/probe.hpp"

namespace xbarsec::core {

/// How query inputs are drawn and what is recorded.
struct QueryPlan {
    std::size_t count = 100;  ///< Q

    /// When true, record raw output vectors; when false, one-hot of the
    /// oracle's label (Figure 5 rows 2/4 vs rows 1/3).
    bool raw_outputs = true;

    /// Record the power side channel alongside each query (requires the
    /// deployment to expose it). When false, `power` is all-zero and only
    /// λ=0 surrogates are meaningful.
    bool record_power = true;

    std::uint64_t seed = 1;
};

/// Draws `plan.count` inputs from `pool` (without replacement while
/// possible, then uniformly with replacement), queries the oracle for
/// outputs (+ power) through the batched interface, and packages them for
/// the surrogate trainer.
attack::QueryDataset collect_queries(Oracle& oracle, const data::Dataset& pool,
                                     const QueryPlan& plan);

/// Probes every input column through the oracle's power channel (weight
/// units). Each probe is a counted power query; the defenses of the
/// oracle (device layers, a session's policy) apply to every measurement.
sidechannel::ProbeResult probe_columns(Oracle& oracle,
                                       const sidechannel::ProbeOptions& options = {});

}  // namespace xbarsec::core
