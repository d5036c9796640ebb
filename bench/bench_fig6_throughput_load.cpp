// Figure 6: throughput (kbps) vs offered load (0.1 - 1.0 kbps), 60
// sensors. Paper's shape: all protocols rise together at low load;
// CS-MAC leads below ~0.6 thanks to negotiation-free stealing, then its
// interference self-destructs and EW-MAC leads; ROPA sits between the
// reuse protocols and S-FAMA; S-FAMA saturates lowest.

#include <iostream>

#include "bench_util.hpp"
#include "figure_sweeps.hpp"

int main() {
  using namespace aquamac;
  bench::print_header("Figure 6 — throughput vs offered load", "Hung & Luo, Fig. 6");

  const suite::FigureSweep figure = suite::fig6_load_sweep();
  const SweepResult sweep = run_sweep(figure.base, paper_comparison_set(), figure.xs,
                                      figure.setter, bench::replications());

  sweep_table(sweep, "offered kbps",
              [](const MeanStats& m) { return m.throughput_kbps; })
      .print(std::cout);

  std::cout << "\nSeed spread (mean +- stddev over replications):\n\n";
  sweep_table_with_spread(sweep, "offered kbps",
                          [](const RunStats& r) { return r.throughput_kbps; }, 3)
      .print(std::cout);

  bench::emit_bench_json(
      "fig6_throughput_load", sweep,
      {{"throughput_kbps", [](const MeanStats& m) { return m.throughput_kbps; }},
       {"delivery_ratio", [](const MeanStats& m) { return m.delivery_ratio; }}});

  std::cout << "\nShape checks (paper Fig. 6): EW-MAC > ROPA > S-FAMA at load >= 0.8;\n"
               "CS-MAC peaks in the mid-load range and falls behind EW-MAC at high load.\n";
  return 0;
}
