// Figure 8: execution time (s) vs offered load — the time needed to
// deliver a fixed batch of packets whose size corresponds to the offered
// load over the 300 s window. Paper's shape: indistinguishable below ~20
// packets/300 s (load ~0.136), then S-FAMA > ROPA > CS-MAC > EW-MAC
// (larger = slower).

#include <iostream>

#include "bench_util.hpp"
#include "figure_sweeps.hpp"

int main() {
  using namespace aquamac;
  bench::print_header("Figure 8 — execution time vs offered load", "Hung & Luo, Fig. 8");

  const suite::FigureSweep figure = suite::fig8_batch_sweep();
  const SweepResult sweep = run_sweep(figure.base, paper_comparison_set(), figure.xs,
                                      figure.setter, bench::replications());

  sweep_table(sweep, "offered kbps",
              [](const MeanStats& m) { return m.execution_time_s; }, 1)
      .print(std::cout);

  bench::emit_bench_json(
      "fig8_execution_time", sweep,
      {{"execution_time_s", [](const MeanStats& m) { return m.execution_time_s; }}});

  std::cout << "\nShape checks (paper Fig. 8): negligible differences at the lowest load;\n"
               "EW-MAC completes fastest and S-FAMA slowest as load grows.\n";
  return 0;
}
