#pragma once
// Protocol x parameter sweeps: the engine behind every figure bench.
//
// A sweep takes a base scenario, a list of protocols, a list of x-axis
// values and a setter that applies an x value to a ScenarioConfig; it
// returns one MeanStats per (protocol, x), averaged over seed
// replications. Benches select the metric column and print the same
// series the corresponding paper figure plots.

#include <functional>
#include <map>
#include <span>
#include <vector>

#include "harness/runner.hpp"
#include "util/table.hpp"

namespace aquamac {

using ConfigSetter = std::function<void(ScenarioConfig&, double)>;

struct SweepResult {
  std::vector<double> xs;
  std::vector<MacKind> protocols;
  /// series[protocol][i] corresponds to xs[i].
  std::map<MacKind, std::vector<MeanStats>> series;
  /// Raw replicated runs behind each mean (same indexing), for spread
  /// reporting and custom post-processing.
  std::map<MacKind, std::vector<std::vector<RunStats>>> raw;

  // --- wall-clock accounting (BENCH_*.json) --------------------------
  double wall_s{0.0};         ///< end-to-end sweep wall time
  unsigned jobs_used{1};      ///< resolved worker count the sweep ran with
  unsigned replications{0};   ///< seeds per (protocol, x) cell
  /// Summed per-run wall seconds per (protocol, x) cell (same indexing
  /// as series). Under parallel execution this is compute cost, not
  /// elapsed time; the cells sum to ~wall_s * jobs_used at saturation.
  std::map<MacKind, std::vector<double>> cell_wall_s;

  [[nodiscard]] std::size_t total_runs() const {
    return protocols.size() * xs.size() * replications;
  }
  [[nodiscard]] const MeanStats& at(MacKind kind, std::size_t i) const {
    return series.at(kind).at(i);
  }
  [[nodiscard]] const std::vector<RunStats>& runs_at(MacKind kind, std::size_t i) const {
    return raw.at(kind).at(i);
  }
};

/// Runs the full (protocol, x, seed) cross product, fanned across
/// base.jobs worker threads (every run is an independent Simulator +
/// Network + RNG, so results are bit-identical for any jobs value;
/// jobs = 1 is the plain serial loop). A base carrying a shared
/// TraceSink is fed the per-run traces merged by (sim time, task index)
/// after the join — the same bit-identical stream for every jobs value.
[[nodiscard]] SweepResult run_sweep(const ScenarioConfig& base,
                                    std::span<const MacKind> protocols,
                                    std::span<const double> xs, const ConfigSetter& setter,
                                    unsigned replications);

/// Renders one metric of a sweep as a table: first column the x value,
/// one column per protocol.
using MetricFn = std::function<double(const MeanStats&)>;
[[nodiscard]] Table sweep_table(const SweepResult& sweep, const std::string& x_name,
                                const MetricFn& metric, int precision = 4);

/// Same, but each protocol's value is divided by the S-FAMA value at the
/// same x (Figs. 10 and 11 normalize to S-FAMA = 1). Throws
/// std::invalid_argument if the sweep did not include the S-FAMA
/// baseline — normalizing against a missing series would print
/// meaningless numbers.
[[nodiscard]] Table sweep_table_normalized(const SweepResult& sweep, const std::string& x_name,
                                           const MetricFn& metric, int precision = 4);

/// Per-cell "mean +- stddev" across the seed replications, for judging
/// whether a figure's gaps exceed run-to-run noise.
[[nodiscard]] Table sweep_table_with_spread(const SweepResult& sweep,
                                            const std::string& x_name,
                                            const RunMetricFn& metric, int precision = 4);

}  // namespace aquamac
