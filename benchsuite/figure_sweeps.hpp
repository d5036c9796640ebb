#pragma once
// The paper's §5 load / density / batch sweeps (Figs. 6, 7, 8) as data:
// base scenario, x axis and setter per figure. The paper_figures workload
// runs exactly these sweeps, so it measures what a user reproducing §5
// runs. The definitions match bench/bench_fig6_throughput_load.cpp,
// bench/bench_fig7_throughput_density.cpp and
// bench/bench_fig8_execution_time.cpp, which do not include this header yet.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/sweep.hpp"

namespace aquamac::suite {

struct FigureSweep {
  ScenarioConfig base;
  std::vector<double> xs;
  ConfigSetter setter;
};

/// Fig. 6: throughput vs offered load, 60 sensors.
inline FigureSweep fig6_load_sweep() {
  return {paper_default_scenario(),
          {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
          [](ScenarioConfig& config, double load) { config.traffic.offered_load_kbps = load; }};
}

/// Fig. 7: throughput vs number of sensors at 0.8 kbps, fixed region.
inline FigureSweep fig7_density_sweep() {
  ScenarioConfig base = paper_default_scenario();
  base.traffic.offered_load_kbps = 0.8;
  return {base,
          {60, 80, 100, 120, 140},
          [](ScenarioConfig& config, double nodes) {
            config.node_count = static_cast<std::size_t>(nodes);
          }};
}

/// Fig. 8: time to deliver a fixed batch whose size corresponds to the
/// offered load over the 300 s window (2048-bit packets).
inline FigureSweep fig8_batch_sweep() {
  ScenarioConfig base = paper_default_scenario();
  base.traffic.mode = TrafficMode::kBatch;
  // Batch runs are open-ended: allow plenty of horizon so slow protocols
  // still finish and report their true completion time.
  base.sim_time = Duration::seconds(1'200);
  return {base,
          {0.01, 0.2, 0.4, 0.6, 0.8, 1.0},
          [](ScenarioConfig& config, double load) {
            const double packets = std::max(1.0, std::round(load * 1'000.0 * 300.0 / 2'048.0));
            config.traffic.batch_packets = static_cast<std::uint32_t>(packets);
          }};
}

inline std::vector<FigureSweep> paper_figure_sweeps() {
  return {fig6_load_sweep(), fig7_density_sweep(), fig8_batch_sweep()};
}

}  // namespace aquamac::suite
