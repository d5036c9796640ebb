// bench_suite: the AquaMAC benchmark program (workloads, metrics and method
// in README.md beside this file). One workload per process:
//
//   bench_suite --workload grid_serial [--seed 7] [--seconds 20] [--traced] [--smoke]
//
// Every metric is printed as `name value unit`; the last line is one JSON
// result object. The timed pass installs no benchmark instrumentation and
// yields the end-to-end metrics; --traced adds a serial traced pass
// (trace_ledger.hpp) and reports the per-layer metrics instead. Every
// correctness check counts in the result's attempted / failed.
//
// aquamac-lint: allow-file(wall-clock) -- the benchmark's deliverable is host
// wall time around public entry points; simulation inputs come only from the
// scenario presets and --seed.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "figure_sweeps.hpp"
#include "harness/checkpoint_run.hpp"
#include "harness/config_io.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "sim/checkpoint.hpp"
#include "stats/invariant_auditor.hpp"
#include "stats/trace.hpp"
#include "trace_ledger.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"

namespace {

using namespace aquamac;
using namespace aquamac::suite;
using Clock = std::chrono::steady_clock;

// --- workload sizes ---------------------------------------------------------

/// Seed replications per (protocol, x) cell in one paper_figures batch: the
/// default of bench_fig6/7/8 (bench::replications()), so a batch is exactly
/// what those benches run.
constexpr unsigned kPaperReps = 3;
/// paper_figures set-up samples (one network per sweep cell each, ~15 ms).
constexpr std::size_t kPaperSetupSamples = 15;
constexpr std::size_t kGridNodes = 20'000;
constexpr unsigned kGridShards = 4;
constexpr std::size_t kCustodyNodes = 500;
constexpr std::size_t kSmokeNodes = 200;
/// Set-up samples per invocation for the single-network workloads.
constexpr std::size_t kSetupSamples = 3;

// --- small helpers ----------------------------------------------------------

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double seconds_of(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string stats_json(const RunStats& stats) {
  std::ostringstream os;
  JsonWriter json{os};
  write_run_stats_json(json, stats);
  return os.str();
}

/// Worker threads for sweep fan-out: min(4, cores). Shard pools size
/// themselves to min(shards, cores) with kGridShards = 4.
unsigned thread_cap() { return std::clamp(std::thread::hardware_concurrency(), 1u, 4u); }

/// Repeats `unit` until `seconds` of wall time are measured (at least once).
template <class Unit>
void repeat_for(double seconds, Unit&& unit) {
  const auto start = Clock::now();
  do {
    unit();
  } while (since(start) < seconds);
}

// --- result report ----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{20.0};
  bool traced{false};
  bool smoke{false};
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "FAIL: " << what << "\n";
    }
  }

  void end_to_end(std::string name, double value, std::string unit) {
    e2e_.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layer_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Workload-specific numbers: printed, not part of the JSON result.
  void extra(std::string name, double value, std::string unit) {
    extra_.push_back({std::move(name), value, std::move(unit)});
  }

  [[nodiscard]] bool correct() const { return failed_ == 0; }

  void print(std::ostream& os, bool traced) const {
    os << std::setprecision(12);
    for (const auto* group : {&e2e_, &layer_, &extra_}) {
      for (const Metric& m : *group) os << m.name << ' ' << m.value << ' ' << m.unit << '\n';
    }
    os << "run_fail_ratio "
       << ratio(static_cast<double>(failed_), static_cast<double>(attempted_)) << " ratio\n";
    JsonWriter json{os};
    json.begin_object();
    json.key("correct").value(correct());
    json.key("attempted").value(attempted_);
    json.key("failed").value(failed_);
    json.key("metrics").begin_object();
    for (const Metric& m : traced ? layer_ : e2e_) {
      json.key(m.name).begin_object();
      json.key("value").value(m.value);
      json.key("unit").value(m.unit);
      json.end_object();
    }
    json.end_object();
    json.end_object();
    os << "\n";
  }

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<Metric> extra_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

// --- runs -------------------------------------------------------------------

/// Public counters of one finished run.
struct EngineCounters {
  std::uint64_t events{0};
  std::uint64_t windows{0};
  std::uint64_t transmissions{0};
  std::uint64_t cache_hits{0};
  std::uint64_t cache_misses{0};
  std::uint64_t rebins{0};

  void add(const Simulator& sim, Network& network) {
    events += sim.events_executed();
    windows += sim.windows_executed();
    transmissions += network.channel().transmissions();
    cache_hits += network.channel().path_cache_hits();
    cache_misses += network.channel().path_cache_misses();
    rebins += network.channel().spatial_rebins();
  }
};

struct RunResult {
  RunStats stats;
  double setup_s{0.0};  ///< Simulator + Network construction
  double run_s{0.0};    ///< Network::run
  EngineCounters engine;

  [[nodiscard]] double wall_s() const { return setup_s + run_s; }
  [[nodiscard]] double sim_s_per_wall_s() const { return ratio(stats.elapsed_s, run_s); }
};

/// One run with nothing of the benchmark's installed.
RunResult timed_run(const ScenarioConfig& config) {
  RunResult out;
  const auto start = Clock::now();
  Simulator sim{config.logger};
  Network network{sim, config};
  out.setup_s = since(start);
  const auto run_start = Clock::now();
  out.stats = network.run();
  out.run_s = since(run_start);
  out.engine.add(sim, network);
  return out;
}

/// Construction only: one set-up sample.
double build_only(const ScenarioConfig& config) {
  const auto start = Clock::now();
  Simulator sim{config.logger};
  const Network network{sim, config};
  return since(start);
}

/// Model-level tallies of the traced runs the per-layer counts come from.
struct ModelTally {
  std::array<std::uint64_t, kTraceKinds> kinds{};
  std::uint64_t distinct_arrivals{0};
  std::uint64_t handshake_attempts{0};
  std::uint64_t handshake_successes{0};
  std::uint64_t extra_attempts{0};
  std::uint64_t extra_successes{0};
  std::uint64_t e2e_originated{0};
  std::uint64_t failovers{0};
  std::uint64_t queue_hwm{0};
  std::uint64_t pending_hwm{0};
  EngineCounters engine;

  [[nodiscard]] std::uint64_t count(TraceEventKind kind) const {
    return kinds[static_cast<std::size_t>(kind)];
  }
};

/// What a traced run does at its checkpoint boundary (if any).
struct CkptPlan {
  std::optional<Time> at;
  /// Capture mode: also verify_restore the captured payload on the live
  /// network (the byte compare + decode + re-encode a resume performs
  /// after its replay; non-perturbing, which the RunStats checks confirm).
  bool verify_in_place{true};
  /// Resume mode: verify_restore against this checkpoint at its time.
  const Checkpoint* resume{nullptr};
};

struct TracedRun {
  RunResult result;
  std::optional<Checkpoint> checkpoint;
  std::uint64_t container_bytes{0};
  double replay_s{0.0};  ///< resume mode: run start to the checkpoint boundary
};

/// One run with the traced pass's instrumentation: `own_sink` wrapped in a
/// LedgerSink, PhaseHook spans when `spans` is non-null (serial runs only),
/// pending-event samples every simulated second, and the checkpoint plan.
TracedRun traced_run(ScenarioConfig config, TraceSink& own_sink, SpanRecorder* spans,
                     const CkptPlan& plan, Report& report, ModelTally* tally) {
  TracedRun out;
  LedgerSink ledger{own_sink, spans};
  config.trace = &ledger;

  const auto start = Clock::now();
  std::optional<Simulator> sim;
  std::optional<Network> network;
  {
    const SpanScope span{spans, Layer::kNetBuild};
    sim.emplace(config.logger);
    network.emplace(*sim, config);
  }
  out.result.setup_s = since(start);
  if (spans != nullptr) {
    network->channel().set_phase_hook(spans);
    for (std::size_t i = 0; i < network->node_count(); ++i) {
      network->node(static_cast<NodeId>(i)).modem().set_phase_hook(spans);
    }
  }

  RunBoundaryHooks hooks;
  for (Time t = Time::zero() + Duration::seconds(1); t <= network->horizon();
       t += Duration::seconds(1)) {
    hooks.boundaries.push_back(t);
  }
  if (plan.at) {
    hooks.boundaries.push_back(*plan.at);
    std::sort(hooks.boundaries.begin(), hooks.boundaries.end());
    hooks.boundaries.erase(std::unique(hooks.boundaries.begin(), hooks.boundaries.end()),
                           hooks.boundaries.end());
  }
  std::uint64_t pending_hwm = 0;
  const auto run_start = Clock::now();
  hooks.on_boundary = [&](Time at) {
    pending_hwm = std::max<std::uint64_t>(pending_hwm, sim->pending_count());
    if (!plan.at || at != *plan.at) return true;
    if (plan.resume != nullptr) {
      out.replay_s = since(run_start);
      const SpanScope span{spans, Layer::kVerifyRestore};
      network->verify_restore(plan.resume->payload);
      return true;
    }
    Checkpoint ckpt;
    {
      const SpanScope span{spans, Layer::kCkptEncode};
      ckpt = make_checkpoint(*network, config, at);
    }
    {
      const SpanScope span{spans, Layer::kContainerRw};
      std::stringstream container;
      write_checkpoint(container, ckpt);
      out.container_bytes = container.str().size();
      const Checkpoint back = read_checkpoint(container);
      report.check(back.at == ckpt.at && back.scenario_text == ckpt.scenario_text &&
                       back.payload == ckpt.payload,
                   "checkpoint container round trip");
    }
    if (plan.verify_in_place) {
      const SpanScope span{spans, Layer::kVerifyRestore};
      network->verify_restore(ckpt.payload);
    }
    out.checkpoint = std::move(ckpt);
    return true;
  };
  out.result.stats = network->run(hooks);
  out.result.run_s = since(run_start);
  out.result.engine.add(*sim, *network);

  if (tally != nullptr) {
    for (std::size_t k = 0; k < kTraceKinds; ++k) {
      tally->kinds[k] += ledger.count(static_cast<TraceEventKind>(k));
    }
    const RunStats& s = out.result.stats;
    tally->distinct_arrivals += ledger.distinct_arrivals();
    tally->handshake_attempts += s.handshake_attempts;
    tally->handshake_successes += s.handshake_successes;
    tally->extra_attempts += s.extra_attempts;
    tally->extra_successes += s.extra_successes;
    tally->e2e_originated += s.e2e_originated;
    tally->failovers += s.e2e_failovers;
    tally->queue_hwm = std::max(tally->queue_hwm, s.relay_queue_highwater);
    tally->pending_hwm = std::max(tally->pending_hwm, pending_hwm);
    tally->engine.add(*sim, *network);
  }
  return out;
}

// --- per-layer report -------------------------------------------------------

struct LayerInputs {
  const SpanRecorder* spans{nullptr};
  double traced_wall_s{0.0};  ///< set-up + run wall of the span-recorded runs
  std::uint64_t builds{0};    ///< networks constructed under net.build
  const ModelTally* model{nullptr};
  double timed_run_s{0.0};  ///< Network::run wall of the timed reference runs
  std::uint64_t timed_events{0};
  std::uint64_t windows{0};  ///< sharded engine windows (0 when none ran)
  std::uint64_t windowed_events{0};
  double trace_overhead_frac{0.0};
  std::uint64_t ckpt_bytes{0};
};

/// Wall seconds of the harness.* spans: checkpoint work the timed runs do
/// not repeat, excluded from the tracing overhead.
double harness_span_s(const SpanRecorder& spans) {
  return seconds_of(spans.aggregate(Layer::kCkptEncode).total +
                    spans.aggregate(Layer::kContainerRw).total +
                    spans.aggregate(Layer::kVerifyRestore).total);
}

void report_layers(Report& report, const LayerInputs& in) {
  const SpanRecorder& spans = *in.spans;
  const ModelTally& model = *in.model;
  const auto self_s = [&spans](Layer layer) { return seconds_of(spans.aggregate(layer).self); };
  const auto calls = [&spans](Layer layer) {
    return static_cast<double>(spans.aggregate(layer).count);
  };
  const auto kind = [&model](TraceEventKind k) { return static_cast<double>(model.count(k)); };
  const EngineCounters& engine = model.engine;

  const double attributed_s = seconds_of(spans.total_self());
  const double residual_s = in.traced_wall_s - attributed_s;
  report.check(residual_s >= 0.0 && attributed_s > 0.0,
               "span self times are non-overlapping and fit inside the traced wall");

  report.layer("sim.events", static_cast<double>(engine.events), "count");
  report.layer("sim.ns_per_event",
               1e9 * ratio(in.timed_run_s, static_cast<double>(in.timed_events)), "ns");
  report.layer("sim.residual_self_s", residual_s, "s");
  report.layer("sim.residual_frac", ratio(residual_s, in.traced_wall_s), "ratio");
  report.layer("sim.pending_hwm", static_cast<double>(model.pending_hwm), "count");
  report.layer("sim.windows", static_cast<double>(in.windows), "count");
  report.layer("sim.events_per_window",
               ratio(static_cast<double>(in.windowed_events), static_cast<double>(in.windows)),
               "count");

  const auto tx = static_cast<double>(engine.transmissions);
  const auto lookups = static_cast<double>(engine.cache_hits + engine.cache_misses);
  report.layer("channel.transmissions", tx, "count");
  report.layer("channel.self_s", self_s(Layer::kChannelDeliver), "s");
  report.layer("channel.ns_per_tx", 1e9 * ratio(self_s(Layer::kChannelDeliver), tx), "ns");
  report.layer("channel.paths_per_tx", ratio(lookups, tx), "count");
  report.layer("channel.path_cache_hit_ratio",
               ratio(static_cast<double>(engine.cache_hits), lookups), "ratio");
  report.layer("channel.spatial_rebins", static_cast<double>(engine.rebins), "count");

  report.layer("mac.rx_self_s", self_s(Layer::kMacRx), "s");
  report.layer("mac.rx_calls", calls(Layer::kMacRx), "count");
  report.layer("mac.ns_per_rx", 1e9 * ratio(self_s(Layer::kMacRx), calls(Layer::kMacRx)), "ns");
  report.layer("phy.frames_sent", kind(TraceEventKind::kTxStart), "count");
  const double rx_ok = kind(TraceEventKind::kRxOk);
  const double rx_lost = kind(TraceEventKind::kRxLost);
  report.layer("phy.rx_loss_ratio", ratio(rx_lost, rx_ok + rx_lost), "ratio");
  report.layer("mac.handshake_success_ratio",
               ratio(static_cast<double>(model.handshake_successes),
                     static_cast<double>(model.handshake_attempts)),
               "ratio");
  report.layer("mac.extra_success_ratio",
               ratio(static_cast<double>(model.extra_successes),
                     static_cast<double>(model.extra_attempts)),
               "ratio");
  report.layer("mac.state_transitions", kind(TraceEventKind::kMacState), "count");
  report.layer("mac.slot_boundaries", kind(TraceEventKind::kSlotBoundary), "count");

  const double build_s = seconds_of(spans.aggregate(Layer::kNetBuild).total);
  report.layer("net.build_s", build_s, "s");
  report.layer("net.build_s_per_run", ratio(build_s, static_cast<double>(in.builds)), "s");
  report.layer("net.route_updates", kind(TraceEventKind::kRouteUpdate), "count");
  report.layer("net.relay_forwards", kind(TraceEventKind::kRelayForward), "count");
  report.layer("net.relay_retries", kind(TraceEventKind::kRelayRetry), "count");
  report.layer("net.failovers", static_cast<double>(model.failovers), "count");
  report.layer("net.dead_letters", kind(TraceEventKind::kRelayDeadLetter), "count");
  report.layer("net.custody_queue_hwm", static_cast<double>(model.queue_hwm), "count");
  report.layer("net.e2e_delivery_distinct",
               ratio(static_cast<double>(model.distinct_arrivals),
                     static_cast<double>(model.e2e_originated)),
               "ratio");
  report.layer("net.cross_sink_duplicates",
               kind(TraceEventKind::kRelayArrive) - static_cast<double>(model.distinct_arrivals),
               "count");
  report.layer("fault.transitions",
               kind(TraceEventKind::kFaultNodeDown) + kind(TraceEventKind::kFaultNodeUp) +
                   kind(TraceEventKind::kFaultBurstBegin) +
                   kind(TraceEventKind::kFaultBurstEnd) +
                   kind(TraceEventKind::kFaultStormBegin) +
                   kind(TraceEventKind::kFaultStormEnd),
               "count");

  report.layer("stats.records", calls(Layer::kStatsRecord), "count");
  report.layer("stats.self_s", self_s(Layer::kStatsRecord), "s");
  report.layer("stats.ns_per_record",
               1e9 * ratio(self_s(Layer::kStatsRecord), calls(Layer::kStatsRecord)), "ns");
  report.layer("stats.trace_overhead_frac", in.trace_overhead_frac, "ratio");

  report.layer("harness.ckpt_encode_s", self_s(Layer::kCkptEncode), "s");
  report.layer("harness.ckpt_bytes", static_cast<double>(in.ckpt_bytes), "bytes");
  report.layer("harness.container_rw_s", self_s(Layer::kContainerRw), "s");
  report.layer("harness.verify_restore_s", self_s(Layer::kVerifyRestore), "s");

  for (std::size_t k = 0; k < kTraceKinds; ++k) {
    report.extra("trace." + std::string{to_string(static_cast<TraceEventKind>(k))},
                 static_cast<double>(model.kinds[k]), "count");
  }
}

/// Writes the traced pass's aggregates, per-kind counts and the first
/// SpanRecorder::kRawLimit raw spans to BENCH_suite_spans_<workload>.json.
void write_spans_file(const Options& opts, const SpanRecorder& spans, const ModelTally& model,
                      double traced_wall_s) {
  const std::string path = "BENCH_suite_spans_" + opts.workload + ".json";
  std::ofstream os{path};
  if (!os) {
    std::cerr << "warning: cannot open " << path << " for writing\n";
    return;
  }
  JsonWriter json{os};
  json.begin_object();
  json.key("schema").value("aquamac-bench-suite-spans-v1");
  json.key("workload").value(opts.workload);
  json.key("seed").value(opts.seed);
  json.key("traced_wall_s").value(traced_wall_s);
  json.key("layers").begin_object();
  for (std::size_t i = 0; i < kLayerNames.size(); ++i) {
    const SpanRecorder::Aggregate& agg = spans.aggregate(static_cast<Layer>(i));
    json.key(kLayerNames[i]).begin_object();
    json.key("count").value(agg.count);
    json.key("total_s").value(seconds_of(agg.total));
    json.key("self_s").value(seconds_of(agg.self));
    json.end_object();
  }
  json.end_object();
  json.key("trace_counts").begin_object();
  for (std::size_t k = 0; k < kTraceKinds; ++k) {
    json.key(to_string(static_cast<TraceEventKind>(k))).value(model.kinds[k]);
  }
  json.end_object();
  json.key("spans_recorded").value(spans.spans());
  json.key("span_columns").begin_array();
  for (const char* column : {"id", "parent", "layer", "begin_ns", "end_ns"}) json.value(column);
  json.end_array();
  json.key("spans").begin_array();
  for (const SpanRecorder::RawSpan& span : spans.raw()) {
    json.begin_array();
    json.value(span.id).value(span.parent);
    json.value(kLayerNames[static_cast<std::size_t>(span.layer)]);
    json.value(static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(span.begin).count()));
    json.value(static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(span.end).count()));
    json.end_array();
  }
  json.end_array();
  json.end_object();
  os << "\n";
  std::cerr << "[bench_suite] wrote " << path << " (" << spans.raw().size() << " of "
            << spans.spans() << " spans)\n";
}

// --- paper_figures ----------------------------------------------------------
//
// A closed batch: the Fig. 6 load, Fig. 7 density and Fig. 8 batch sweeps
// over the paper's comparison set, each fanned out by run_sweep over
// min(4, cores) workers; the next sweep starts when the previous returns.

/// The rep-0 configuration of every (sweep, protocol, x) cell, in batch order.
std::vector<ScenarioConfig> paper_cells(const std::vector<FigureSweep>& sweeps,
                                        std::uint64_t seed) {
  std::vector<ScenarioConfig> cells;
  for (const FigureSweep& sweep : sweeps) {
    for (const MacKind kind : paper_comparison_set()) {
      for (const double x : sweep.xs) {
        ScenarioConfig config = sweep.base;
        config.mac = kind;
        sweep.setter(config, x);
        config.seed = seed;
        cells.push_back(config);
      }
    }
  }
  return cells;
}

struct PaperBatch {
  double wall_s{0.0};
  std::uint64_t runs{0};
  double sim_s{0.0};
  unsigned jobs{1};
  std::vector<std::string> stats;  ///< every run, batch order
  std::vector<std::string> rep0;   ///< rep 0 of every cell, paper_cells order
  std::vector<double> cell_wall_s;
};

PaperBatch run_paper_batch(const std::vector<FigureSweep>& sweeps, std::uint64_t seed,
                           unsigned reps) {
  PaperBatch batch;
  std::vector<SweepResult> results;
  const auto start = Clock::now();
  for (const FigureSweep& sweep : sweeps) {
    ScenarioConfig base = sweep.base;
    base.seed = seed;
    base.jobs = thread_cap();
    results.push_back(run_sweep(base, paper_comparison_set(), sweep.xs, sweep.setter, reps));
  }
  batch.wall_s = since(start);
  for (const SweepResult& result : results) {
    batch.runs += result.total_runs();
    batch.jobs = result.jobs_used;
    for (const MacKind kind : result.protocols) {
      for (std::size_t i = 0; i < result.xs.size(); ++i) {
        batch.cell_wall_s.push_back(result.cell_wall_s.at(kind).at(i));
        const std::vector<RunStats>& runs = result.runs_at(kind, i);
        batch.rep0.push_back(stats_json(runs.front()));
        for (const RunStats& run : runs) {
          batch.sim_s += run.elapsed_s;
          batch.stats.push_back(stats_json(run));
        }
      }
    }
  }
  return batch;
}

void run_paper_figures(const Options& opts, Report& report) {
  std::vector<FigureSweep> sweeps = paper_figure_sweeps();
  if (opts.smoke) sweeps.resize(1);  // Fig. 6 only, one replication
  const unsigned reps = opts.smoke ? 1 : kPaperReps;
  const std::vector<ScenarioConfig> cells = paper_cells(sweeps, opts.seed);

  std::vector<double> setups;
  for (std::size_t k = 0; k < kPaperSetupSamples; ++k) {
    const auto start = Clock::now();
    for (const ScenarioConfig& cell : cells) (void)build_only(cell);
    setups.push_back(since(start));
  }

  std::vector<PaperBatch> batches;
  repeat_for(opts.traced ? 0.0 : opts.seconds, [&] {
    batches.push_back(run_paper_batch(sweeps, opts.seed, reps));
    report.check(batches.back().stats.size() == batches.back().runs, "batch completed");
    if (batches.size() > 1) {
      report.check(batches.back().stats == batches.front().stats,
                   "repeated batch reproduces every RunStats byte for byte");
    }
  });
  const double rss = peak_rss_mb();

  std::vector<double> walls;
  std::vector<double> sim_rates;
  std::vector<double> run_rates;
  for (const PaperBatch& batch : batches) {
    walls.push_back(batch.wall_s);
    sim_rates.push_back(batch.sim_s / batch.wall_s);
    run_rates.push_back(static_cast<double>(batch.runs) / batch.wall_s);
  }
  report.end_to_end("sim_s_per_wall_s", median(sim_rates), "sim-s/s");
  report.end_to_end("runs_per_s", median(run_rates), "runs/s");
  report.end_to_end("wall_s", median(walls), "s");
  report.end_to_end("setup_s", median(setups), "s");
  report.end_to_end("peak_rss_mb", rss, "MB");

  const PaperBatch& batch = batches.front();
  double cell_sum = 0.0;
  for (const double s : batch.cell_wall_s) cell_sum += s;
  report.extra("harness.pool_busy_frac", ratio(cell_sum, batch.wall_s * batch.jobs), "ratio");
  report.extra("harness.cell_s_p50", median(batch.cell_wall_s), "s");
  report.extra("harness.cell_s_p88", percentile(batch.cell_wall_s, 0.88), "s");
  report.extra("harness.cells", static_cast<double>(batch.cell_wall_s.size()), "count");
  if (!opts.traced) return;

  // Traced pass: the rep-0 run of every cell serially, timed and then
  // traced, each checked against its cell of the timed batch.
  double timed_wall = 0.0;
  double timed_run_s = 0.0;
  std::uint64_t timed_events = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const RunResult run = timed_run(cells[i]);
    timed_wall += run.wall_s();
    timed_run_s += run.run_s;
    timed_events += run.engine.events;
    report.check(stats_json(run.stats) == batch.rep0[i],
                 "direct run equals its run_sweep cell (" + std::string{to_string(cells[i].mac)} +
                     ")");
  }

  SpanRecorder spans;
  ModelTally model;
  double traced_wall = 0.0;
  std::uint64_t ckpt_bytes = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    HashTrace own;
    CkptPlan plan;
    plan.at = Time::zero() + cells[i].hello_window + Duration::seconds(1);
    const TracedRun run = traced_run(cells[i], own, &spans, plan, report, &model);
    traced_wall += run.result.wall_s();
    ckpt_bytes += run.container_bytes;
    report.check(stats_json(run.result.stats) == batch.rep0[i],
                 "traced run equals its timed run (observation is non-perturbing)");
  }

  LayerInputs in;
  in.spans = &spans;
  in.traced_wall_s = traced_wall;
  in.builds = cells.size();
  in.model = &model;
  in.timed_run_s = timed_run_s;
  in.timed_events = timed_events;
  in.trace_overhead_frac = (traced_wall - harness_span_s(spans) - timed_wall) / timed_wall;
  in.ckpt_bytes = ckpt_bytes;
  report_layers(report, in);
  write_spans_file(opts, spans, model, traced_wall);
}

// --- grid_serial / grid_sharded ---------------------------------------------
//
// One grid3d_scenario(20 000) EW-MAC run (mobility on, 60 s of traffic, no
// trace sink) on the serial engine or on kGridShards shards. The other
// engine runs the same input as the correctness reference: the sharded
// engine must reproduce the serial run exactly.

void run_grid(const Options& opts, Report& report, unsigned own_shards) {
  ScenarioConfig serial = grid3d_scenario(opts.smoke ? kSmokeNodes : kGridNodes, opts.seed);
  ScenarioConfig sharded = serial;
  sharded.shards = kGridShards;
  const ScenarioConfig& own = own_shards == 1 ? serial : sharded;

  std::vector<RunResult> units;
  std::vector<double> walls;
  repeat_for(opts.traced ? 0.0 : opts.seconds, [&] {
    const auto start = Clock::now();
    units.push_back(timed_run(own));
    walls.push_back(since(start));
    report.check(units.back().engine.events > 0, "timed run completed");
    if (units.size() > 1) {
      report.check(stats_json(units.back().stats) == stats_json(units.front().stats),
                   "repeated run reproduces RunStats byte for byte");
    }
  });
  const double rss = peak_rss_mb();

  std::vector<double> setups;
  std::vector<double> sim_rates;
  std::vector<double> run_rates;
  for (std::size_t i = 0; i < units.size(); ++i) {
    setups.push_back(units[i].setup_s);
    sim_rates.push_back(units[i].sim_s_per_wall_s());
    run_rates.push_back(1.0 / walls[i]);
  }
  while (setups.size() < kSetupSamples) setups.push_back(build_only(own));
  report.end_to_end("sim_s_per_wall_s", median(sim_rates), "sim-s/s");
  report.end_to_end("runs_per_s", median(run_rates), "runs/s");
  report.end_to_end("wall_s", median(walls), "s");
  report.end_to_end("setup_s", median(setups), "s");
  report.end_to_end("peak_rss_mb", rss, "MB");

  const RunResult& timed = units.front();
  const std::string expected = stats_json(timed.stats);
  if (!opts.traced) {
    const RunResult reference = timed_run(own_shards == 1 ? sharded : serial);
    report.check(stats_json(reference.stats) == expected,
                 "serial and sharded engines produce identical RunStats");
    const double speedup = own_shards == 1 ? ratio(timed.run_s, reference.run_s)
                                           : ratio(reference.run_s, timed.run_s);
    report.extra("sim.shard_speedup", speedup, "x");
    report.extra("sim.parallel_efficiency", speedup / kGridShards, "ratio");
    return;
  }

  // Traced pass: both engines, traced. Spans need the serial engine, so
  // the span decomposition comes from the serial traced run for both
  // workloads; the sharded traced run contributes its engine counters.
  SpanRecorder spans;
  ModelTally serial_model;
  HashTrace serial_digest;
  CkptPlan plan;
  plan.at = Time::zero() + serial.hello_window + serial.sim_time / 2;
  const TracedRun traced_serial =
      traced_run(serial, serial_digest, &spans, plan, report, &serial_model);
  ModelTally sharded_model;
  HashTrace sharded_digest;
  const TracedRun traced_sharded =
      traced_run(sharded, sharded_digest, nullptr, CkptPlan{}, report, &sharded_model);
  report.check(stats_json(traced_serial.result.stats) == expected,
               "traced serial run equals the timed run (observation is non-perturbing)");
  report.check(stats_json(traced_sharded.result.stats) == expected,
               "traced sharded run equals the timed run (observation is non-perturbing)");
  report.check(serial_digest.digest() == sharded_digest.digest(),
               "grid_sharded trace digest equals grid_serial's");

  const double own_traced_wall =
      own_shards == 1 ? traced_serial.result.wall_s() - harness_span_s(spans)
                      : traced_sharded.result.wall_s();
  ModelTally model = serial_model;
  model.pending_hwm = own_shards == 1 ? serial_model.pending_hwm : sharded_model.pending_hwm;

  LayerInputs in;
  in.spans = &spans;
  in.traced_wall_s = traced_serial.result.wall_s();
  in.builds = 1;
  in.model = &model;
  in.timed_run_s = timed.run_s;
  in.timed_events = timed.engine.events;
  in.windows = sharded_model.engine.windows;
  in.windowed_events = sharded_model.engine.events;
  in.trace_overhead_frac = (own_traced_wall - timed.wall_s()) / timed.wall_s();
  in.ckpt_bytes = traced_serial.container_bytes;
  report_layers(report, in);
  write_spans_file(opts, spans, model, in.traced_wall_s);
}

void run_grid_serial(const Options& opts, Report& report) { run_grid(opts, report, 1); }
void run_grid_sharded(const Options& opts, Report& report) {
  run_grid(opts, report, kGridShards);
}

// --- multihop_custody -------------------------------------------------------
//
// A static grid3d mesh with DV routing, custody ARQ and a fault plan, run
// for 1 800 s under the hard-fail InvariantAuditor. A checkpoint captured
// at 900 s goes through the container format and is resumed (replay,
// verify_restore, finish); the resumed run must equal the uninterrupted one.

ScenarioConfig custody_config(const Options& opts) {
  ScenarioConfig config = grid3d_scenario(opts.smoke ? kSmokeNodes : kCustodyNodes, opts.seed);
  config.enable_mobility = false;
  config.multi_hop = true;
  config.routing = RoutingKind::kDv;
  config.sim_time = Duration::seconds(opts.smoke ? 600 : 1'800);
  // ~0.1 packets/s network-wide, as bench_multihop: multi-hop capacity of
  // the slotted handshake is a few hundred bit/s.
  config.traffic.offered_load_kbps = 0.2;
  config.reliability.max_retries = 3;
  config.reliability.queue_limit = 16;
  config.mac_config.max_retries = 2;
  config.mac_config.dead_neighbor_threshold = 3;
  config.fault.outage_rate_per_hour = 2.0;
  config.fault.outage_mean_duration = Duration::seconds(45);
  config.fault.ge_p_bad = 0.02;
  return config;
}

/// Mid-horizon: 900 s at full size.
Time custody_checkpoint(const ScenarioConfig& config) {
  return Time::zero() + config.sim_time / 2;
}

InvariantAuditor::Config hard_fail_audit(const ScenarioConfig& config) {
  InvariantAuditor::Config audit = auditor_config_for(config);
  audit.hard_fail = true;
  return audit;
}

void check_audit(Report& report, const InvariantAuditor& auditor, const std::string& run) {
  report.check(auditor.violations().empty() && auditor.checks() > 0,
               run + " audits clean under the hard-fail auditor");
}

struct CustodyUnit {
  RunResult run;         ///< the uninterrupted run (checkpoint capture included)
  double resume_s{0.0};  ///< container read + resume_scenario, end to end
  double wall_s{0.0};
  std::string stats;
};

CustodyUnit custody_unit(const ScenarioConfig& config, Report& report) {
  CustodyUnit unit;
  const auto start = Clock::now();
  std::string container;
  {
    InvariantAuditor auditor{hard_fail_audit(config)};
    ScenarioConfig audited = config;
    audited.trace = &auditor;
    Simulator sim{audited.logger};
    Network network{sim, audited};
    unit.run.setup_s = since(start);
    Checkpoint ckpt;
    RunBoundaryHooks hooks;
    hooks.boundaries = {custody_checkpoint(config)};
    hooks.on_boundary = [&](Time at) {
      ckpt = make_checkpoint(network, audited, at);
      return true;
    };
    const auto run_start = Clock::now();
    unit.run.stats = network.run(hooks);
    unit.run.run_s = since(run_start);
    unit.run.engine.add(sim, network);
    check_audit(report, auditor, "uninterrupted run");
    std::ostringstream os;
    write_checkpoint(os, ckpt);
    container = os.str();
  }
  unit.stats = stats_json(unit.run.stats);

  const auto resume_start = Clock::now();
  InvariantAuditor auditor{hard_fail_audit(config)};
  ScenarioConfig base = config;
  base.trace = &auditor;
  std::istringstream is{container};
  const RunStats resumed = resume_scenario(read_checkpoint(is), base);
  unit.resume_s = since(resume_start);
  unit.wall_s = since(start);
  check_audit(report, auditor, "resumed run");
  report.check(stats_json(resumed) == unit.stats,
               "resumed RunStats equal the uninterrupted run's");
  return unit;
}

void run_multihop_custody(const Options& opts, Report& report) {
  const ScenarioConfig config = custody_config(opts);

  std::vector<CustodyUnit> units;
  repeat_for(opts.traced ? 0.0 : opts.seconds, [&] {
    units.push_back(custody_unit(config, report));
    if (units.size() > 1) {
      report.check(units.back().stats == units.front().stats,
                   "repeated run reproduces RunStats byte for byte");
    }
  });
  const double rss = peak_rss_mb();

  std::vector<double> walls;
  std::vector<double> setups;
  std::vector<double> sim_rates;
  std::vector<double> run_rates;
  std::vector<double> resumes;
  for (const CustodyUnit& unit : units) {
    walls.push_back(unit.wall_s);
    setups.push_back(unit.run.setup_s);
    sim_rates.push_back(unit.run.sim_s_per_wall_s());
    // Two completed simulations per unit: the uninterrupted run and its resume.
    run_rates.push_back(2.0 / unit.wall_s);
    resumes.push_back(unit.resume_s);
  }
  while (setups.size() < kSetupSamples) setups.push_back(build_only(config));
  report.end_to_end("sim_s_per_wall_s", median(sim_rates), "sim-s/s");
  report.end_to_end("runs_per_s", median(run_rates), "runs/s");
  report.end_to_end("wall_s", median(walls), "s");
  report.end_to_end("setup_s", median(setups), "s");
  report.end_to_end("peak_rss_mb", rss, "MB");
  report.extra("harness.resume_s", median(resumes), "s");
  if (!opts.traced) return;

  const CustodyUnit& timed = units.front();
  SpanRecorder spans;
  ModelTally model;
  InvariantAuditor first_auditor{hard_fail_audit(config)};
  CkptPlan capture;
  capture.at = custody_checkpoint(config);
  capture.verify_in_place = false;
  const TracedRun first = traced_run(config, first_auditor, &spans, capture, report, &model);
  if (!first.checkpoint) throw CheckpointError("traced run captured no checkpoint");
  check_audit(report, first_auditor, "traced run");
  report.check(stats_json(first.result.stats) == timed.stats,
               "traced run equals the timed run (observation is non-perturbing)");

  std::istringstream scenario{first.checkpoint->scenario_text};
  const ScenarioConfig resume_config = load_scenario(scenario, config);
  InvariantAuditor resume_auditor{hard_fail_audit(resume_config)};
  CkptPlan resume;
  resume.at = first.checkpoint->at;
  resume.resume = &*first.checkpoint;
  const TracedRun resumed =
      traced_run(resume_config, resume_auditor, &spans, resume, report, nullptr);
  check_audit(report, resume_auditor, "traced resume");
  report.check(stats_json(resumed.result.stats) == timed.stats,
               "traced resume equals the uninterrupted run");
  report.extra("harness.replay_s", resumed.replay_s, "s");

  LayerInputs in;
  in.spans = &spans;
  in.traced_wall_s = first.result.wall_s() + resumed.result.wall_s();
  in.builds = 2;
  in.model = &model;
  in.timed_run_s = timed.run.run_s;
  in.timed_events = timed.run.engine.events;
  // The timed unit encodes its checkpoint inside Network::run as well; only
  // the in-run container round trip is work the timed run does not do.
  const double container_s = seconds_of(spans.aggregate(Layer::kContainerRw).total);
  in.trace_overhead_frac =
      (first.result.wall_s() - container_s - timed.run.wall_s()) / timed.run.wall_s();
  in.ckpt_bytes = first.container_bytes;
  report_layers(report, in);
  write_spans_file(opts, spans, model, in.traced_wall_s);
}

// --- main -------------------------------------------------------------------

struct Workload {
  std::string_view name;
  std::uint64_t default_seed;
  void (*run)(const Options&, Report&);
};

constexpr std::array<Workload, 4> kWorkloads{{
    {"paper_figures", 1, run_paper_figures},
    {"grid_serial", 7, run_grid_serial},
    {"grid_sharded", 7, run_grid_sharded},
    {"multihop_custody", 11, run_multihop_custody},
}};

}  // namespace

int main(int argc, char** argv) {
  CliParser cli{"bench_suite",
                {
                    {"workload", "", "paper_figures, grid_serial, grid_sharded, multihop_custody"},
                    {"seed", "", "input seed (default: the workload's own)"},
                    {"seconds", "20", "wall seconds the timed pass measures (at least one unit)"},
                    {"traced", "false", "run the traced pass and report per-layer metrics"},
                    {"smoke", "false", "small sizes (N <= 200, one replication) for tests"},
                }};
  Options opts;
  const Workload* workload = nullptr;
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    opts.workload = cli.get("workload");
    for (const Workload& w : kWorkloads) {
      if (w.name == opts.workload) workload = &w;
    }
    if (workload == nullptr) {
      throw std::invalid_argument("unknown --workload '" + opts.workload + "'");
    }
    opts.seed = workload->default_seed;
    if (cli.has("seed")) {
      const std::int64_t seed = cli.get_int("seed");
      if (seed < 0) throw std::invalid_argument("--seed must be non-negative");
      opts.seed = static_cast<std::uint64_t>(seed);
    }
    opts.seconds = cli.get_double("seconds");
    opts.traced = cli.get_bool("traced");
    opts.smoke = cli.get_bool("smoke");
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_suite: " << e.what() << "\n" << cli.help_text();
    return 2;
  }

  Report report;
  try {
    workload->run(opts, report);
  } catch (const std::exception& e) {
    report.check(false, std::string{"workload aborted: "} + e.what());
  }
  report.print(std::cout, opts.traced);
  return report.correct() ? 0 : 1;
}
