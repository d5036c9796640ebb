// Figure 7: throughput vs number of sensors (60-140) at 0.8 kbps offered
// load, fixed region. Paper's shape: S-FAMA is flat (it always reserves
// tau_max, so density does not matter); the reuse protocols lose their
// advantage as density rises, because shorter neighbor delays shrink the
// exploitable waiting windows — in the limit they converge toward S-FAMA.

#include <iostream>

#include "bench_util.hpp"
#include "figure_sweeps.hpp"

int main() {
  using namespace aquamac;
  bench::print_header("Figure 7 — throughput vs sensor density", "Hung & Luo, Fig. 7");

  const suite::FigureSweep figure = suite::fig7_density_sweep();
  const SweepResult sweep = run_sweep(figure.base, paper_comparison_set(), figure.xs,
                                      figure.setter, bench::replications());

  sweep_table(sweep, "nodes", [](const MeanStats& m) { return m.throughput_kbps; })
      .print(std::cout);

  bench::emit_bench_json(
      "fig7_throughput_density", sweep,
      {{"throughput_kbps", [](const MeanStats& m) { return m.throughput_kbps; }}});

  std::cout << "\nShape checks (paper Fig. 7): S-FAMA roughly flat across density; the\n"
               "gap between the reuse protocols and S-FAMA narrows as density grows.\n";
  return 0;
}
