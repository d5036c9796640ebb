// aquamac-lint: allow-file(wall-clock) -- this bench's deliverable IS
// wall-clock speedup; determinism is separately digest-checked.
//
// Scaling ledger: runs the density-preserving grid3d scale scenario at
// N in {50, 200, 1000, 2000, 5000, 20000} and records, per N:
//
//   - serial vs sharded conservative-PDES execution (--shards 8), with a
//     HashTrace digest oracle asserting bit-identity, plus the wall-clock
//     speedup (`sharded_speedup`). The JSON carries a `cores` field:
//     on a single-core host the speedup is purely algorithmic (K-times
//     smaller heaps), not parallel, and should be read against it;
//   - a per-phase breakdown of the serial run (channel delivery vs MAC
//     processing) via the PhaseHook seam (bench_util.hpp PhaseProfiler);
//   - the serial run's Network construction wall (`build_s`) and the
//     process's peak RSS after N's runs (`peak_rss_mb`; a high-water mark,
//     so with N ascending it is the largest network's footprint so far).
//
// Track sharded_speedup_largest_n across commits.
//
//   AQUAMAC_FAST=1 ./bench_scale      # N <= 200 only (smoke)
//   AQUAMAC_SCALE_MAC=sfama ./bench_scale

#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "harness/runner.hpp"
#include "net/network.hpp"
#include "stats/trace.hpp"
#include "util/json_writer.hpp"

namespace {

using namespace aquamac;

constexpr unsigned kShards = 8;

struct Cell {
  std::size_t nodes{0};
  double indexed_wall_s{0.0};
  double sharded_wall_s{0.0};
  std::uint64_t indexed_digest{0};
  std::uint64_t sharded_digest{0};
  double channel_phase_s{0.0};
  double mac_phase_s{0.0};
  double build_s{0.0};
  double peak_rss_mb{0.0};

  [[nodiscard]] double sharded_speedup() const {
    return sharded_wall_s > 0.0 ? indexed_wall_s / sharded_wall_s : 0.0;
  }
  [[nodiscard]] bool sharded_identical() const { return sharded_digest == indexed_digest; }
};

struct RunResult {
  double wall_s{0.0};
  double build_s{0.0};  ///< Network construction, included in wall_s
  std::uint64_t digest{0};
};

/// Peak resident set size of this process so far (Linux reports KiB).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// One full simulation with the trace digested; an optional profiler
/// (serial runs only) is installed on the channel and every modem.
RunResult timed_run(ScenarioConfig config, unsigned shards, bench::PhaseProfiler* profiler) {
  HashTrace hash;
  config.trace = &hash;
  config.shards = shards;
  const auto begin = std::chrono::steady_clock::now();
  Simulator sim{config.logger};
  Network network{sim, config};
  const std::chrono::duration<double> build = std::chrono::steady_clock::now() - begin;
  if (profiler != nullptr) {
    network.channel().set_phase_hook(profiler);
    for (std::size_t i = 0; i < config.node_count; ++i) {
      network.node(static_cast<NodeId>(i)).modem().set_phase_hook(profiler);
    }
  }
  (void)network.run();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - begin;
  return {wall.count(), build.count(), hash.digest()};
}

}  // namespace

int main() {
  using namespace aquamac;
  bench::print_header("Scaling ledger: serial vs sharded PDES",
                      "channel lookup and event-loop scaling (not a paper figure)");

  MacKind mac = MacKind::kEwMac;
  if (const char* env = std::getenv("AQUAMAC_SCALE_MAC")) {
    if (std::string{env} == "sfama") mac = MacKind::kSFama;
    if (std::string{env} == "macau") mac = MacKind::kMacaU;
  }

  std::vector<std::size_t> sizes{50, 200, 1000, 2000, 5'000, 20'000};
  if (bench::fast()) sizes = {50, 200};

  const unsigned cores = std::thread::hardware_concurrency();
  std::cout << "mac " << to_string(mac) << ", grid3d, 60 s horizon, mobility on, "
            << cores << " core(s)\n";
  std::cout << "     N     serial s  shards" << kShards
            << " s   shard-x   chan s    mac s   build s   rss MB   identical\n";

  std::vector<Cell> cells;
  bool all_identical = true;
  for (const std::size_t n : sizes) {
    ScenarioConfig config = grid3d_scenario(n, /*seed=*/7);
    config.mac = mac;

    Cell cell;
    cell.nodes = n;

    bench::PhaseProfiler profiler;
    const RunResult serial = timed_run(config, /*shards=*/1, &profiler);
    cell.indexed_wall_s = serial.wall_s;
    cell.indexed_digest = serial.digest;
    cell.build_s = serial.build_s;
    cell.channel_phase_s = profiler.seconds(SimPhase::kChannelDelivery);
    cell.mac_phase_s = profiler.seconds(SimPhase::kMacProcessing);

    const RunResult sharded = timed_run(config, kShards, nullptr);
    cell.sharded_wall_s = sharded.wall_s;
    cell.sharded_digest = sharded.digest;

    cell.peak_rss_mb = peak_rss_mb();

    const bool identical = cell.sharded_identical();
    all_identical = all_identical && identical;
    std::cout.width(6);
    std::cout << n << "   " << cell.indexed_wall_s << "   " << cell.sharded_wall_s << "   "
              << cell.sharded_speedup() << "x   " << cell.channel_phase_s << "   " << cell.mac_phase_s << "   " << cell.build_s
              << "   " << cell.peak_rss_mb << "   " << (identical ? "yes" : "NO") << "\n";
    cells.push_back(cell);
  }

  const Cell& largest = cells.back();
  std::cout << "\nsharded speedup at N=" << largest.nodes << ": "
            << largest.sharded_speedup() << "x    all digests identical: "
            << (all_identical ? "yes" : "NO") << "\n";

  bench::write_json_file("scale", [&](JsonWriter& json) {
    json.begin_object();
    json.key("bench").value("scale");
    json.key("schema").value("aquamac-bench-v1");
    json.key("mac").value(to_string(mac));
    json.key("cores").value(static_cast<double>(cores));
    json.key("shards").value(static_cast<double>(kShards));
    json.key("bit_identical").value(all_identical ? 1.0 : 0.0);
    json.key("sharded_speedup_largest_n").value(largest.sharded_speedup());
    json.key("xs").begin_array();
    for (const Cell& cell : cells) json.value(static_cast<double>(cell.nodes));
    json.end_array();
    // Series nest metric -> protocol -> values like every other bench,
    // so scripts/plot_results.py can plot them unchanged.
    const std::string mac_name{to_string(mac)};
    const auto series = [&json, &cells, &mac_name](const std::string& name, auto value) {
      json.key(name).begin_object();
      json.key(mac_name).begin_array();
      for (const Cell& cell : cells) json.value(value(cell));
      json.end_array();
      json.end_object();
    };
    json.key("series").begin_object();
    series("indexed_wall_s", [](const Cell& c) { return c.indexed_wall_s; });
    series("sharded_wall_s", [](const Cell& c) { return c.sharded_wall_s; });
    series("sharded_speedup", [](const Cell& c) { return c.sharded_speedup(); });
    series("channel_phase_s", [](const Cell& c) { return c.channel_phase_s; });
    series("mac_phase_s", [](const Cell& c) { return c.mac_phase_s; });
    series("build_s", [](const Cell& c) { return c.build_s; });
    series("peak_rss_mb", [](const Cell& c) { return c.peak_rss_mb; });
    json.end_object();
    json.end_object();
  });

  if (!all_identical) {
    std::cerr << "ERROR: an execution mode changed the event stream\n";
    return 1;
  }
  return 0;
}
