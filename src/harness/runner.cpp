#include "harness/runner.hpp"

#include <algorithm>
#include <cmath>

namespace aquamac {

Spread spread_of(const std::vector<RunStats>& runs, const RunMetricFn& metric) {
  Spread spread{};
  if (runs.empty()) return spread;
  spread.min = metric(runs.front());
  spread.max = spread.min;
  for (const RunStats& run : runs) {
    const double v = metric(run);
    spread.mean += v;
    spread.min = std::min(spread.min, v);
    spread.max = std::max(spread.max, v);
  }
  spread.mean /= static_cast<double>(runs.size());
  if (runs.size() > 1) {
    double ss = 0.0;
    for (const RunStats& run : runs) {
      const double d = metric(run) - spread.mean;
      ss += d * d;
    }
    spread.stddev = std::sqrt(ss / static_cast<double>(runs.size() - 1));
  }
  return spread;
}

RunStats run_scenario(const ScenarioConfig& config) {
  Simulator sim{config.logger};
  Network network{sim, config};
  return network.run();
}

MeanStats mean_of(const std::vector<RunStats>& runs) {
  MeanStats mean{};
  if (runs.empty()) return mean;
  const auto add = [](const char*, double& sum, const auto& v) { sum += static_cast<double>(v); };
  for (const RunStats& run : runs) RunStats::for_each_field(add, mean, run);
  const double n = static_cast<double>(runs.size());
  MeanStats::for_each_field([n](const char*, double& sum) { sum /= n; }, mean);
  return mean;
}

}  // namespace aquamac
