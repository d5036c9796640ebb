#pragma once
// Single-run and replicated execution of scenarios.

#include <functional>
#include <vector>

#include "net/network.hpp"

namespace aquamac {

/// Builds a Simulator + Network for `config`, runs it to the horizon and
/// returns the aggregate statistics.
[[nodiscard]] RunStats run_scenario(const ScenarioConfig& config);

/// Runs `replications` copies differing only in seed (base.seed + k),
/// fanned across base.jobs worker threads (see ScenarioConfig::jobs).
/// Results are bit-identical to serial execution for any jobs value.
[[nodiscard]] std::vector<RunStats> run_replicated(const ScenarioConfig& base,
                                                   unsigned replications);

/// Same, with the worker count given explicitly (0 = auto). Runs that
/// carry a shared TraceSink are forced serial so the trace stays ordered.
[[nodiscard]] std::vector<RunStats> run_replicated_parallel(const ScenarioConfig& base,
                                                            unsigned replications,
                                                            unsigned jobs);

/// Figure-level summary of a replicated run: the seed-mean of every
/// RunStats field (same field list, each mean a double).
using MeanStats = RunStatsOf<double>;

[[nodiscard]] MeanStats mean_of(const std::vector<RunStats>& runs);

/// Seed-to-seed dispersion of one metric across a replicated run.
struct Spread {
  double mean{0.0};
  double stddev{0.0};  ///< sample standard deviation (n-1)
  double min{0.0};
  double max{0.0};
};

using RunMetricFn = std::function<double(const RunStats&)>;
[[nodiscard]] Spread spread_of(const std::vector<RunStats>& runs, const RunMetricFn& metric);

}  // namespace aquamac
