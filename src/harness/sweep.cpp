#include "harness/sweep.hpp"

// aquamac-lint: allow-file(wall-clock) -- harness wall-timing for BENCH_*.json / cell_wall_s
// Rationale: steady_clock here measures host wall time around whole runs; it is read outside
// every Simulator and never feeds simulation state, schedules or RNG draws.

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "stats/trace.hpp"
#include "util/thread_pool.hpp"

namespace aquamac {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

SweepResult run_sweep(const ScenarioConfig& base, std::span<const MacKind> protocols,
                      std::span<const double> xs, const ConfigSetter& setter,
                      unsigned replications) {
  const auto sweep_start = std::chrono::steady_clock::now();

  SweepResult result{};
  result.xs.assign(xs.begin(), xs.end());
  result.protocols.assign(protocols.begin(), protocols.end());
  result.replications = replications;

  const unsigned jobs = resolve_jobs(base.jobs);
  result.jobs_used = jobs;

  // Flatten the (protocol, x, seed) cross product so the pool sees every
  // independent run at once — parallelism is not limited by the seed
  // count of a single cell.
  struct Task {
    std::size_t proto;  ///< index into result.protocols
    std::size_t x;      ///< index into result.xs
    unsigned rep;
  };
  std::vector<Task> tasks;
  tasks.reserve(result.protocols.size() * result.xs.size() * replications);
  for (std::size_t p = 0; p < result.protocols.size(); ++p) {
    for (std::size_t i = 0; i < result.xs.size(); ++i) {
      for (unsigned k = 0; k < replications; ++k) tasks.push_back({p, i, k});
    }
  }

  // A shared trace sink records into per-task buffers merged after the
  // join (ordered by sim time, then flat task index), so the stream a
  // sink sees is bit-identical for every jobs value.
  std::vector<std::unique_ptr<MemoryTrace>> buffers;
  if (base.trace != nullptr) {
    const TraceSinkFactory factory = memory_trace_factory();
    buffers.reserve(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) buffers.push_back(factory(t));
  }

  // Workers write disjoint slots of flat arrays; results are scattered
  // into the per-protocol maps after the join.
  std::vector<RunStats> flat_runs(tasks.size());
  std::vector<double> run_wall_s(tasks.size(), 0.0);

  parallel_for(jobs, tasks.size(), [&](std::size_t t) {
    const Task& task = tasks[t];
    ScenarioConfig config = base;
    config.mac = result.protocols[task.proto];
    setter(config, result.xs[task.x]);
    config.seed = config.seed + task.rep;
    if (!buffers.empty()) config.trace = buffers[t].get();
    const auto run_start = std::chrono::steady_clock::now();
    flat_runs[t] = run_scenario(config);
    run_wall_s[t] = seconds_since(run_start);
  });

  if (base.trace != nullptr) merge_traces(buffers, *base.trace);

  for (MacKind kind : result.protocols) {
    result.raw[kind].assign(result.xs.size(), std::vector<RunStats>(replications));
    result.cell_wall_s[kind].assign(result.xs.size(), 0.0);
  }
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const MacKind kind = result.protocols[tasks[t].proto];
    result.raw[kind][tasks[t].x][tasks[t].rep] = std::move(flat_runs[t]);
    result.cell_wall_s[kind][tasks[t].x] += run_wall_s[t];
  }
  for (MacKind kind : result.protocols) {
    auto& series = result.series[kind];
    series.reserve(result.xs.size());
    for (const std::vector<RunStats>& runs : result.raw[kind]) {
      series.push_back(mean_of(runs));
    }
  }

  result.wall_s = seconds_since(sweep_start);
  return result;
}

Table sweep_table(const SweepResult& sweep, const std::string& x_name, const MetricFn& metric,
                  int precision) {
  std::vector<std::string> headers{x_name};
  for (MacKind kind : sweep.protocols) headers.emplace_back(to_string(kind));
  Table table{std::move(headers)};
  for (std::size_t i = 0; i < sweep.xs.size(); ++i) {
    std::vector<double> row{sweep.xs[i]};
    for (MacKind kind : sweep.protocols) row.push_back(metric(sweep.at(kind, i)));
    table.add_row_numeric(row, precision);
  }
  return table;
}

Table sweep_table_with_spread(const SweepResult& sweep, const std::string& x_name,
                              const RunMetricFn& metric, int precision) {
  std::vector<std::string> headers{x_name};
  for (MacKind kind : sweep.protocols) headers.emplace_back(to_string(kind));
  Table table{std::move(headers)};
  for (std::size_t i = 0; i < sweep.xs.size(); ++i) {
    std::vector<std::string> row{format_double(sweep.xs[i], precision)};
    for (MacKind kind : sweep.protocols) {
      const Spread spread = spread_of(sweep.runs_at(kind, i), metric);
      row.push_back(format_double(spread.mean, precision) + " +- " +
                    format_double(spread.stddev, precision));
    }
    table.add_row(std::move(row));
  }
  return table;
}

Table sweep_table_normalized(const SweepResult& sweep, const std::string& x_name,
                             const MetricFn& metric, int precision) {
  if (std::find(sweep.protocols.begin(), sweep.protocols.end(), MacKind::kSFama) ==
      sweep.protocols.end()) {
    throw std::invalid_argument(
        "sweep_table_normalized: the sweep did not include the S-FAMA baseline; "
        "normalized (Fig. 10/11 style) tables divide by the S-FAMA series");
  }
  std::vector<std::string> headers{x_name};
  for (MacKind kind : sweep.protocols) headers.emplace_back(to_string(kind));
  Table table{std::move(headers)};
  for (std::size_t i = 0; i < sweep.xs.size(); ++i) {
    const double baseline = metric(sweep.at(MacKind::kSFama, i));
    std::vector<double> row{sweep.xs[i]};
    for (MacKind kind : sweep.protocols) {
      const double value = metric(sweep.at(kind, i));
      row.push_back(baseline != 0.0 ? value / baseline : 0.0);
    }
    table.add_row_numeric(row, precision);
  }
  return table;
}

}  // namespace aquamac
