#include "xbarsec/core/fig3.hpp"

#include "xbarsec/core/queries.hpp"
#include "xbarsec/nn/sensitivity.hpp"
#include "xbarsec/stats/correlation.hpp"

namespace xbarsec::core {

Fig3Panel run_fig3_on(Oracle& attacker, const TrainedVictim& victim, const data::Dataset& test,
                      const std::string& label) {
    Fig3Panel panel;
    panel.label = label;
    panel.shape = test.shape();
    panel.sensitivity_map = nn::mean_abs_input_gradient(victim.net, test);
    panel.l1_map = probe_columns(attacker).conductance_sums;
    panel.correlation = stats::pearson(panel.sensitivity_map, panel.l1_map);
    panel.victim_test_accuracy = victim.test_accuracy;
    return panel;
}

}  // namespace xbarsec::core
