// Aggregation of metrics over independent experiment runs.
//
// Every Figure-5 point is "mean ± std over runs, with a significance star
// against the λ=0 baseline". RunAggregator collects named series of
// per-run values and produces those summaries uniformly across benches.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "xbarsec/stats/descriptive.hpp"
#include "xbarsec/stats/ttest.hpp"

namespace xbarsec::stats {

/// Collects per-run scalar observations under string keys and summarizes.
class RunAggregator {
public:
    /// Appends one run's observation for `key`.
    void add(const std::string& key, double value);

    /// All observations for `key`; throws ContractViolation if absent.
    std::span<const double> values(const std::string& key) const;

    /// Welford summary for `key`; requires at least one observation.
    Summary summary(const std::string& key) const;

    /// Welch t-test between the observations of two keys (both need >= 2).
    TTestResult compare(const std::string& key_a, const std::string& key_b) const;

    /// All keys in insertion order.
    const std::vector<std::string>& keys() const { return order_; }

    bool contains(const std::string& key) const { return series_.count(key) != 0; }

private:
    std::map<std::string, std::vector<double>> series_;
    std::vector<std::string> order_;
};

}  // namespace xbarsec::stats
