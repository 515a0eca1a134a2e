#include "xbarsec/core/fig4.hpp"

#include "xbarsec/attack/evaluate.hpp"
#include "xbarsec/common/log.hpp"
#include "xbarsec/core/queries.hpp"
#include "xbarsec/nn/metrics.hpp"

namespace xbarsec::core {

Fig4Result run_fig4_on(Oracle& attacker, const xbar::CrossbarNetwork& hardware,
                       const data::Dataset& eval_set, const std::string& label,
                       const Fig4Options& options) {
    XS_EXPECTS(!options.strengths.empty());
    XS_EXPECTS(eval_set.size() > 0);

    // What the victim actually computes in deployment (equals the software
    // net when the device config is ideal); the WorstCase reference method
    // takes its white-box gradients from here.
    const nn::SingleLayerNet deployed = hardware.effective_network();

    // Attacker side: probe the power channel once for the 1-norm ranking —
    // through the decorator stack, so obfuscation defenses degrade it.
    const tensor::Vector l1 = probe_columns(attacker).conductance_sums;

    Fig4Result result;
    result.label = label;
    result.strengths = options.strengths;
    result.clean_accuracy = options.evaluate_via_oracle
                                ? attack::oracle_accuracy(attacker, eval_set)
                                : nn::accuracy(deployed, eval_set);

    for (const attack::SinglePixelMethod method : attack::all_single_pixel_methods()) {
        Fig4Series series;
        series.method = method;
        series.accuracy.reserve(options.strengths.size());
        for (const double strength : options.strengths) {
            // Fresh deterministic stream per (method, strength) point so
            // points are independent and reproducible in isolation.
            Rng rng(options.seed ^ (static_cast<std::uint64_t>(method) << 32) ^
                    static_cast<std::uint64_t>(strength * 1024.0));
            const tensor::Matrix adv = attack::craft_single_pixel_batch(
                method, eval_set, strength, &l1, &deployed, rng);
            series.accuracy.push_back(
                options.evaluate_via_oracle
                    ? attack::oracle_accuracy(attacker, adv, eval_set.labels())
                    : nn::accuracy(deployed, adv, eval_set.labels()));
        }
        log::info("fig4 ", result.label, " method ", to_string(method), " done");
        result.series.push_back(std::move(series));
    }
    return result;
}

Table render_fig4(const Fig4Result& result) {
    std::vector<std::string> header{"Strength"};
    for (const auto& s : result.series) header.push_back(to_string(s.method));
    Table t(std::move(header));
    for (std::size_t k = 0; k < result.strengths.size(); ++k) {
        t.begin_row();
        t.add(result.strengths[k], 1);
        for (const auto& s : result.series) t.add(s.accuracy[k], 4);
    }
    return t;
}

}  // namespace xbarsec::core
