#include "harness/runner.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "stats/trace.hpp"
#include "util/thread_pool.hpp"

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

std::vector<RunStats> run_replicated(const ScenarioConfig& base, unsigned replications) {
  return run_replicated_parallel(base, replications, base.jobs);
}

std::vector<RunStats> run_replicated_parallel(const ScenarioConfig& base,
                                              unsigned replications, unsigned jobs) {
  const unsigned workers = resolve_jobs(jobs);

  // A shared trace sink is the one piece of state the per-run isolation
  // does not cover. Instead of forcing the harness serial, each run
  // records into its own buffer and the buffers are merged after the
  // join — the same path for every jobs value, so the merged stream is
  // bit-identical whether the runs executed serially or in parallel.
  std::vector<std::unique_ptr<MemoryTrace>> buffers;
  if (base.trace != nullptr) {
    const TraceSinkFactory factory = memory_trace_factory();
    buffers.reserve(replications);
    for (unsigned k = 0; k < replications; ++k) buffers.push_back(factory(k));
  }

  std::vector<RunStats> runs(replications);
  parallel_for(workers, replications, [&](std::size_t k) {
    ScenarioConfig config = base;
    config.seed = base.seed + static_cast<std::uint64_t>(k);
    if (!buffers.empty()) config.trace = buffers[k].get();
    runs[k] = run_scenario(config);
  });

  if (base.trace != nullptr) merge_traces(buffers, *base.trace);
  return runs;
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
