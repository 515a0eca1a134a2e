#include "xbarsec/stats/aggregate.hpp"

#include "xbarsec/common/contracts.hpp"

namespace xbarsec::stats {

void RunAggregator::add(const std::string& key, double value) {
    auto [it, inserted] = series_.try_emplace(key);
    if (inserted) order_.push_back(key);
    it->second.push_back(value);
}

std::span<const double> RunAggregator::values(const std::string& key) const {
    const auto it = series_.find(key);
    XS_EXPECTS_MSG(it != series_.end(), "unknown series key");
    return it->second;
}

Summary RunAggregator::summary(const std::string& key) const { return summarize(values(key)); }

TTestResult RunAggregator::compare(const std::string& key_a, const std::string& key_b) const {
    return welch_t_test(values(key_a), values(key_b));
}

}  // namespace xbarsec::stats
