// Reproduces Figure 5 ROWS 1-2 (MNIST): surrogate black-box attacks with
// power information, label-only and raw-output variants (plus the
// defended-deployment registry entry).
#include "scenario_bench_common.hpp"

int main(int argc, char** argv) {
    return xbarsec::benchscenario::run_prefix(
        "bench_fig5_mnist — Figure 5 rows 1-2 (MNIST-like surrogate attacks)", "fig5/mnist/",
        argc, argv,
        "Paper shape: power info helps at moderate Q on MNIST (many *), little/none on CIFAR; "
        "benefit vanishes once Q exceeds the input dimension.");
}
