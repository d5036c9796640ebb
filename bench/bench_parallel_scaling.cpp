// aquamac-lint: allow-file(wall-clock) -- this bench's deliverable IS
// wall-clock speedup; determinism is separately digest-checked.
//
// Parallel harness scaling: runs the same 3-protocol x 4-load x 5-seed
// sweep with jobs=1 (the serial code path) and jobs=N (default: all
// cores), verifies the results are bit-identical, and records the
// wall-clock speedup in BENCH_parallel_scaling.json. A second section
// scales the *intra-run* axis instead: one grid3d run at shards K in
// {1, 2, 4, 8} (conservative PDES), digest-checked against serial.
// This is the perf ledger for both parallelism layers: track
// runs_per_sec, speedup_vs_jobs1 and shard_speedup_k8 across commits.
//
//   AQUAMAC_JOBS=4 ./bench_parallel_scaling      # pin the worker count
//   AQUAMAC_SCALE=paper ./bench_parallel_scaling # full-size scenario

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/runner.hpp"
#include "stats/trace.hpp"

namespace {

using namespace aquamac;

bool identical(const RunStats& a, const RunStats& b) {
  return a.elapsed_s == b.elapsed_s && a.traffic_duration_s == b.traffic_duration_s &&
         a.node_count == b.node_count && a.packets_offered == b.packets_offered &&
         a.packets_delivered == b.packets_delivered &&
         a.packets_dropped == b.packets_dropped && a.bits_offered == b.bits_offered &&
         a.bits_delivered == b.bits_delivered && a.throughput_kbps == b.throughput_kbps &&
         a.offered_load_kbps == b.offered_load_kbps &&
         a.delivery_ratio == b.delivery_ratio && a.total_energy_j == b.total_energy_j &&
         a.mean_power_mw == b.mean_power_mw && a.control_bits == b.control_bits &&
         a.maintenance_bits == b.maintenance_bits &&
         a.retransmitted_bits == b.retransmitted_bits &&
         a.piggyback_bits == b.piggyback_bits && a.total_bits_sent == b.total_bits_sent &&
         a.mean_latency_s == b.mean_latency_s && a.execution_time_s == b.execution_time_s &&
         a.handshake_attempts == b.handshake_attempts &&
         a.handshake_successes == b.handshake_successes &&
         a.contention_losses == b.contention_losses && a.extra_attempts == b.extra_attempts &&
         a.extra_successes == b.extra_successes && a.rx_collisions == b.rx_collisions &&
         a.fairness_index == b.fairness_index && a.e2e_originated == b.e2e_originated &&
         a.e2e_arrived_at_sink == b.e2e_arrived_at_sink &&
         a.e2e_delivery_ratio == b.e2e_delivery_ratio && a.mean_hops == b.mean_hops &&
         a.mean_e2e_latency_s == b.mean_e2e_latency_s;
}

}  // namespace

int main() {
  using namespace aquamac;
  bench::print_header("Parallel sweep scaling",
                      "harness throughput (not a paper figure)");

  ScenarioConfig base = small_test_scenario();
  if (const char* scale = std::getenv("AQUAMAC_SCALE");
      scale != nullptr && std::string{scale} == "paper") {
    base = paper_default_scenario();
  }

  const MacKind protocols[] = {MacKind::kEwMac, MacKind::kSFama, MacKind::kCsMac};
  const double xs[] = {0.2, 0.4, 0.6, 0.8};
  const unsigned reps = bench::replications(5);
  const auto setter = [](ScenarioConfig& config, double load) {
    config.traffic.offered_load_kbps = load;
  };

  std::cout << "sweep: 3 protocols x " << std::size(xs) << " loads x " << reps
            << " seeds = " << 3 * std::size(xs) * reps << " runs\n\n";

  base.jobs = 1;
  const SweepResult serial = run_sweep(base, protocols, xs, setter, reps);
  std::cout << "jobs=1 : " << serial.wall_s << " s  ("
            << static_cast<double>(serial.total_runs()) / serial.wall_s << " runs/s)\n";

  base.jobs = 0;  // auto: AQUAMAC_JOBS or hardware_concurrency
  const SweepResult parallel = run_sweep(base, protocols, xs, setter, reps);
  std::cout << "jobs=" << parallel.jobs_used << " : " << parallel.wall_s << " s  ("
            << static_cast<double>(parallel.total_runs()) / parallel.wall_s
            << " runs/s)\n";

  // The determinism contract, checked on every raw run of every cell.
  std::size_t mismatches = 0;
  for (MacKind kind : serial.protocols) {
    for (std::size_t i = 0; i < serial.xs.size(); ++i) {
      for (std::size_t k = 0; k < reps; ++k) {
        if (!identical(serial.runs_at(kind, i)[k], parallel.runs_at(kind, i)[k])) {
          ++mismatches;
        }
      }
    }
  }
  const double speedup = parallel.wall_s > 0.0 ? serial.wall_s / parallel.wall_s : 0.0;
  std::cout << "speedup: " << speedup << "x    bit-identical: "
            << (mismatches == 0 ? "yes" : "NO") << "\n";

  // --- intra-run shard scaling (conservative PDES) --------------------
  // One large run, same scenario at every K; every sharded digest must
  // equal the K=1 digest (the engine's bit-identity contract).
  const bool fast = bench::fast();
  ScenarioConfig shard_base = grid3d_scenario(fast ? 200 : 2'000, /*seed=*/3);
  shard_base.sim_time = Duration::seconds(fast ? 10 : 30);
  std::cout << "\nintra-run sharding: grid3d N=" << shard_base.node_count << ", "
            << shard_base.sim_time.to_seconds() << " s horizon\n";

  const unsigned shard_counts[] = {1, 2, 4, 8};
  std::vector<double> shard_wall_s;
  std::uint64_t serial_digest = 0;
  std::size_t shard_mismatches = 0;
  for (const unsigned shards : shard_counts) {
    ScenarioConfig config = shard_base;
    config.shards = shards;
    HashTrace hash;
    config.trace = &hash;
    const auto begin = std::chrono::steady_clock::now();
    (void)run_scenario(config);
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - begin;
    shard_wall_s.push_back(wall.count());
    if (shards == 1) {
      serial_digest = hash.digest();
    } else if (hash.digest() != serial_digest) {
      ++shard_mismatches;
    }
    std::cout << "shards=" << shards << " : " << wall.count() << " s  (digest "
              << (shards == 1 || hash.digest() == serial_digest ? "ok" : "MISMATCH")
              << ")\n";
  }
  const double shard_speedup =
      shard_wall_s.back() > 0.0 ? shard_wall_s.front() / shard_wall_s.back() : 0.0;
  std::cout << "shard speedup (K=8 vs serial): " << shard_speedup << "x    bit-identical: "
            << (shard_mismatches == 0 ? "yes" : "NO") << "\n";

  bench::emit_bench_json(
      "parallel_scaling", parallel,
      {{"throughput_kbps", [](const MeanStats& m) { return m.throughput_kbps; }}},
      {{"serial_wall_s", serial.wall_s},
       {"speedup_vs_jobs1", speedup},
       {"bit_identical", mismatches == 0 ? 1.0 : 0.0},
       {"shard_nodes", static_cast<double>(shard_base.node_count)},
       {"shard_wall_k1", shard_wall_s[0]},
       {"shard_wall_k2", shard_wall_s[1]},
       {"shard_wall_k4", shard_wall_s[2]},
       {"shard_wall_k8", shard_wall_s[3]},
       {"shard_speedup_k8", shard_speedup},
       {"shard_bit_identical", shard_mismatches == 0 ? 1.0 : 0.0}});

  if (mismatches != 0) {
    std::cerr << "ERROR: " << mismatches << " runs differ between jobs=1 and jobs="
              << parallel.jobs_used << "\n";
    return 1;
  }
  if (shard_mismatches != 0) {
    std::cerr << "ERROR: " << shard_mismatches
              << " sharded runs differ from the serial event stream\n";
    return 1;
  }
  return 0;
}
