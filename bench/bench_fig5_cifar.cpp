// Reproduces Figure 5 ROWS 3-4 (CIFAR-10): surrogate black-box attacks
// with power information, label-only and raw-output variants.
#include "scenario_bench_common.hpp"

int main(int argc, char** argv) {
    return xbarsec::benchscenario::run_prefix(
        "bench_fig5_cifar — Figure 5 rows 3-4 (CIFAR-10-like surrogate attacks)", "fig5/cifar/",
        argc, argv,
        "Paper shape: power info helps at moderate Q on MNIST (many *), little/none on CIFAR; "
        "benefit vanishes once Q exceeds the input dimension.");
}
