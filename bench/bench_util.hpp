#pragma once
// Shared helpers for the figure benches.
//
// aquamac-lint: allow-file(wall-clock) -- benches measure real elapsed
// time by design; nothing here feeds the deterministic event stream.

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "stats/invariant_auditor.hpp"
#include "util/json_writer.hpp"
#include "util/phase_hook.hpp"

namespace aquamac::bench {

/// Wall-clock implementation of the src-side PhaseHook seam: accumulates
/// steady_clock time per SimPhase so benches can split a run's cost into
/// channel delivery vs MAC processing. Serial runs only — begin/end pairs
/// from concurrent shards would interleave (see util/phase_hook.hpp).
/// Phases may nest (a MAC handler transmitting from inside
/// finish_arrival); nested time counts toward both phases.
class PhaseProfiler final : public PhaseHook {
 public:
  void begin(SimPhase phase) override { starts_[index(phase)] = Clock::now(); }
  void end(SimPhase phase) override {
    const std::size_t i = index(phase);
    totals_[i] += std::chrono::duration<double>(Clock::now() - starts_[i]).count();
  }

  /// Accumulated seconds spent in `phase` so far.
  [[nodiscard]] double seconds(SimPhase phase) const { return totals_[index(phase)]; }

  void reset() { totals_.fill(0.0); }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kPhases = 2;
  static std::size_t index(SimPhase phase) { return static_cast<std::size_t>(phase); }

  std::array<Clock::time_point, kPhases> starts_{};
  std::array<double, kPhases> totals_{};
};

/// AQUAMAC_FAST=1 asks for a smoke run: one replication, short axes.
inline bool fast() {
  const char* env = std::getenv("AQUAMAC_FAST");
  return env != nullptr && env[0] == '1';
}

/// Seed replications per sweep point; override with AQUAMAC_REPLICATIONS
/// (AQUAMAC_FAST=1 forces 1, for smoke runs).
inline unsigned replications(unsigned def = 3) {
  if (fast()) return 1;
  if (const char* env = std::getenv("AQUAMAC_REPLICATIONS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return def;
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << title << "\n";
  for (std::size_t i = 0; i < title.size(); ++i) std::cout << '=';
  std::cout << "\nReproduces: " << paper_ref << "\n\n";
}

/// One named metric column to serialize into the JSON `series` block.
using NamedMetric = std::pair<std::string, MetricFn>;

/// Extra top-level numbers a bench wants recorded (e.g. measured
/// serial-vs-parallel speedup).
using ExtraField = std::pair<std::string, double>;

/// Directory BENCH_*.json files land in; override with AQUAMAC_BENCH_DIR.
inline std::string bench_output_dir() {
  if (const char* dir = std::getenv("AQUAMAC_BENCH_DIR")) return dir;
  return ".";
}

/// Mean RunStats over `replications` runs seeded config.seed, +1, ...,
/// each watched by a hard-fail InvariantAuditor (throws on a violation).
/// `per_seed`, if set, adjusts each run's config once its seed is set.
inline MeanStats audited_mean(ScenarioConfig config, unsigned replications,
                              const std::function<void(ScenarioConfig&)>& per_seed = {}) {
  std::vector<RunStats> runs;
  const std::uint64_t base_seed = config.seed;
  for (unsigned k = 0; k < replications; ++k) {
    config.seed = base_seed + k;
    if (per_seed) per_seed(config);
    InvariantAuditor::Config audit = auditor_config_for(config);
    audit.hard_fail = true;
    InvariantAuditor auditor{audit};
    config.trace = &auditor;
    runs.push_back(run_scenario(config));
  }
  return mean_of(runs);
}

/// Writes BENCH_<name>.json into bench_output_dir() through `body` and
/// announces the path on stdout. Set AQUAMAC_NO_BENCH_JSON=1 to suppress
/// (tests that exercise bench binaries without wanting artifacts).
inline void write_json_file(const std::string& name,
                            const std::function<void(JsonWriter&)>& body) {
  if (const char* off = std::getenv("AQUAMAC_NO_BENCH_JSON");
      off != nullptr && off[0] == '1') {
    return;
  }
  const std::string path = bench_output_dir() + "/BENCH_" + name + ".json";
  std::ofstream os{path};
  if (!os) {
    std::cerr << "warning: cannot open " << path << " for writing\n";
    return;
  }
  JsonWriter json{os};
  body(json);
  os << "\n";
  std::cout << "[bench json] wrote " << path << "\n";
}

/// Serializes a sweep as the BENCH JSON schema: timing (total wall
/// seconds, per-cell summed run seconds, runs/sec, worker count) plus the
/// selected metric series per protocol.
inline void write_bench_json(JsonWriter& json, const std::string& name,
                             const SweepResult& sweep,
                             const std::vector<NamedMetric>& metrics,
                             const std::vector<ExtraField>& extras) {
  json.begin_object();
  json.key("bench").value(name);
  json.key("schema").value("aquamac-bench-v1");
  json.key("jobs").value(sweep.jobs_used);
  json.key("replications").value(sweep.replications);
  json.key("total_runs").value(sweep.total_runs());
  json.key("wall_s").value(sweep.wall_s);
  json.key("runs_per_sec")
      .value(sweep.wall_s > 0.0 ? static_cast<double>(sweep.total_runs()) / sweep.wall_s
                                : 0.0);
  for (const auto& [key, value] : extras) json.key(key).value(value);

  json.key("xs").begin_array();
  for (const double x : sweep.xs) json.value(x);
  json.end_array();

  json.key("protocols").begin_array();
  for (const MacKind kind : sweep.protocols) json.value(to_string(kind));
  json.end_array();

  // Summed per-run wall seconds per (protocol, x) cell — compute cost,
  // which under parallel execution is not elapsed time.
  json.key("cell_run_s").begin_object();
  for (const MacKind kind : sweep.protocols) {
    json.key(to_string(kind)).begin_array();
    for (const double s : sweep.cell_wall_s.at(kind)) json.value(s);
    json.end_array();
  }
  json.end_object();

  json.key("series").begin_object();
  for (const auto& [metric_name, metric] : metrics) {
    json.key(metric_name).begin_object();
    for (const MacKind kind : sweep.protocols) {
      json.key(to_string(kind)).begin_array();
      for (std::size_t i = 0; i < sweep.xs.size(); ++i) json.value(metric(sweep.at(kind, i)));
      json.end_array();
    }
    json.end_object();
  }
  json.end_object();

  json.end_object();
}

/// Writes a sweep's BENCH_<name>.json (see write_json_file).
inline void emit_bench_json(const std::string& name, const SweepResult& sweep,
                            const std::vector<NamedMetric>& metrics,
                            const std::vector<ExtraField>& extras = {}) {
  std::cout << "\nsweep wall " << sweep.wall_s << " s, jobs " << sweep.jobs_used << "\n";
  write_json_file(name, [&](JsonWriter& json) {
    write_bench_json(json, name, sweep, metrics, extras);
  });
}

}  // namespace aquamac::bench
