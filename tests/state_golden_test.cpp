// Golden state fixtures (tests/data/state_golden/): for a fixed matrix of
// scenarios, the exact bytes of a mid-run checkpoint container, of the
// run's write_run_stats_json object, and of a tiny sweep's mean table
// (every replication-mean metric, so mean_of is covered field by field).
// Any change to the checkpoint codec, the RunStats field list or the
// replication means shows up here as a byte difference; a checkpoint
// mismatch names the first differing payload section.
//
// Regenerate (only when an output change is intended and reviewed):
//   AQUAMAC_UPDATE_GOLDEN=1 ./tests/state_golden_test
//
// The suite name is matched by the CI checkpoint-soak step and the
// ThreadSanitizer job (the shards=4 entry runs worker threads).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/checkpoint_run.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "mac/mac_factory.hpp"
#include "sim/checkpoint.hpp"
#include "stats/trace.hpp"
#include "util/json_writer.hpp"

#ifndef AQUAMAC_GOLDEN_DIR
#error "AQUAMAC_GOLDEN_DIR must name tests/data/state_golden"
#endif

namespace aquamac {
namespace {

struct GoldenCase {
  std::string name;
  ScenarioConfig config;
  Time checkpoint_at;
};

void PrintTo(const GoldenCase& golden, std::ostream* os) { *os << golden.name; }

/// 12-node grid with mobility on and enough load to keep queues busy.
ScenarioConfig mobile12(MacKind mac) {
  ScenarioConfig config = small_test_scenario();
  config.mac = mac;
  config.seed = 7;
  config.enable_mobility = true;
  config.traffic.offered_load_kbps = 1.0;
  return config;
}

/// Multi-hop grid: DV routing, custody ARQ and link outages.
ScenarioConfig dv_custody_grid(unsigned shards) {
  ScenarioConfig config = small_test_scenario();
  config.seed = 19;
  config.node_count = 16;
  config.shards = shards;
  config.deployment.width_m = 3'000.0;
  config.deployment.length_m = 3'000.0;
  config.deployment.depth_m = 3'000.0;
  config.multi_hop = true;
  config.routing = RoutingKind::kDv;
  config.sim_time = Duration::seconds(200);
  config.traffic.offered_load_kbps = 0.5;
  config.mac_config.max_retries = 2;
  config.mac_config.dead_neighbor_threshold = 3;
  config.reliability.max_retries = 3;
  config.reliability.queue_limit = 8;
  config.fault.outage_rate_per_hour = 30.0;
  config.fault.outage_mean_duration = Duration::seconds(30);
  config.fault.ge_p_bad = 0.1;
  config.fault.ge_loss_bad = 0.8;
  return config;
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  for (const MacKind mac :
       {MacKind::kEwMac, MacKind::kSFama, MacKind::kRopa, MacKind::kCsMac, MacKind::kCwMac,
        MacKind::kSlottedAloha, MacKind::kMacaU}) {
    std::string name = "mobile12_" + std::string{to_string(mac)};
    for (char& c : name) {
      if (c == '-') c = '_';
    }
    cases.push_back({name, mobile12(mac), Time::from_seconds(35)});
  }

  ScenarioConfig skewed = mobile12(MacKind::kEwMac);
  skewed.clock_offset_stddev_s = 0.001;
  skewed.fault.drift_ppm_stddev = 20.0;
  skewed.fault.outage_rate_per_hour = 30.0;
  skewed.fault.ge_p_bad = 0.05;
  skewed.fault.ge_loss_bad = 0.5;
  skewed.fault.storm_rate_per_hour = 4.0;
  skewed.node_failure_fraction = 0.1;
  skewed.node_failure_time = Duration::seconds(20);
  cases.push_back({"ewmac_skew_fault", skewed, Time::from_seconds(40)});

  cases.push_back({"dv_custody_outage", dv_custody_grid(1), Time::from_seconds(110)});
  cases.push_back({"dv_custody_outage_shards4", dv_custody_grid(4), Time::from_seconds(110)});
  return cases;
}

using NamedMetric = std::pair<const char*, MetricFn>;

/// Every replication-mean metric, so the sweep fixture pins each one.
std::vector<NamedMetric> mean_metrics() {
  return {
      {"elapsed_s", [](const MeanStats& m) { return m.elapsed_s; }},
      {"traffic_duration_s", [](const MeanStats& m) { return m.traffic_duration_s; }},
      {"node_count", [](const MeanStats& m) { return m.node_count; }},
      {"packets_offered", [](const MeanStats& m) { return m.packets_offered; }},
      {"packets_delivered", [](const MeanStats& m) { return m.packets_delivered; }},
      {"packets_dropped", [](const MeanStats& m) { return m.packets_dropped; }},
      {"duplicate_deliveries", [](const MeanStats& m) { return m.duplicate_deliveries; }},
      {"bits_offered", [](const MeanStats& m) { return m.bits_offered; }},
      {"bits_delivered", [](const MeanStats& m) { return m.bits_delivered; }},
      {"throughput_kbps", [](const MeanStats& m) { return m.throughput_kbps; }},
      {"offered_load_kbps", [](const MeanStats& m) { return m.offered_load_kbps; }},
      {"delivery_ratio", [](const MeanStats& m) { return m.delivery_ratio; }},
      {"total_energy_j", [](const MeanStats& m) { return m.total_energy_j; }},
      {"mean_power_mw", [](const MeanStats& m) { return m.mean_power_mw; }},
      {"workload_power_mw", [](const MeanStats& m) { return m.workload_power_mw(); }},
      {"control_bits", [](const MeanStats& m) { return m.control_bits; }},
      {"maintenance_bits", [](const MeanStats& m) { return m.maintenance_bits; }},
      {"retransmitted_bits", [](const MeanStats& m) { return m.retransmitted_bits; }},
      {"piggyback_bits", [](const MeanStats& m) { return m.piggyback_bits; }},
      {"total_bits_sent", [](const MeanStats& m) { return m.total_bits_sent; }},
      {"overhead_bits", [](const MeanStats& m) { return m.overhead_bits; }},
      {"mean_latency_s", [](const MeanStats& m) { return m.mean_latency_s; }},
      {"execution_time_s", [](const MeanStats& m) { return m.execution_time_s; }},
      {"handshake_attempts", [](const MeanStats& m) { return m.handshake_attempts; }},
      {"handshake_successes", [](const MeanStats& m) { return m.handshake_successes; }},
      {"contention_losses", [](const MeanStats& m) { return m.contention_losses; }},
      {"extra_attempts", [](const MeanStats& m) { return m.extra_attempts; }},
      {"extra_successes", [](const MeanStats& m) { return m.extra_successes; }},
      {"rx_collisions", [](const MeanStats& m) { return m.rx_collisions; }},
      {"efficiency_raw", [](const MeanStats& m) { return m.efficiency_raw; }},
      {"fairness_index", [](const MeanStats& m) { return m.fairness_index; }},
      {"e2e_originated", [](const MeanStats& m) { return m.e2e_originated; }},
      {"e2e_arrived_at_sink", [](const MeanStats& m) { return m.e2e_arrived_at_sink; }},
      {"e2e_delivery_ratio", [](const MeanStats& m) { return m.e2e_delivery_ratio; }},
      {"mean_hops", [](const MeanStats& m) { return m.mean_hops; }},
      {"mean_e2e_latency_s", [](const MeanStats& m) { return m.mean_e2e_latency_s; }},
      {"e2e_forwarded", [](const MeanStats& m) { return m.e2e_forwarded; }},
      {"e2e_dropped_no_route", [](const MeanStats& m) { return m.e2e_dropped_no_route; }},
      {"e2e_dropped_hop_limit", [](const MeanStats& m) { return m.e2e_dropped_hop_limit; }},
      {"e2e_dropped_mac", [](const MeanStats& m) { return m.e2e_dropped_mac; }},
      {"hop_stretch", [](const MeanStats& m) { return m.hop_stretch; }},
      {"mean_per_hop_latency_s", [](const MeanStats& m) { return m.mean_per_hop_latency_s; }},
      {"e2e_retransmissions", [](const MeanStats& m) { return m.e2e_retransmissions; }},
      {"e2e_failovers", [](const MeanStats& m) { return m.e2e_failovers; }},
      {"e2e_dead_letter_exhausted",
       [](const MeanStats& m) { return m.e2e_dead_letter_exhausted; }},
      {"e2e_dead_letter_overflow", [](const MeanStats& m) { return m.e2e_dead_letter_overflow; }},
      {"e2e_dead_letter_no_route", [](const MeanStats& m) { return m.e2e_dead_letter_no_route; }},
      {"e2e_duplicates_suppressed",
       [](const MeanStats& m) { return m.e2e_duplicates_suppressed; }},
      {"relay_queue_highwater", [](const MeanStats& m) { return m.relay_queue_highwater; }},
  };
}

std::string container_bytes(const Checkpoint& ckpt) {
  std::ostringstream os;
  write_checkpoint(os, ckpt);
  return os.str();
}

std::string stats_json_bytes(const RunStats& stats) {
  std::ostringstream os;
  JsonWriter json{os};
  write_run_stats_json(json, stats);
  return os.str();
}

/// Two loads x two seeds of the case's own protocol, one table per
/// replication-mean metric at full precision.
std::string tiny_sweep_text(ScenarioConfig base) {
  base.jobs = 1;
  const std::vector<MacKind> protocols{base.mac};
  const std::vector<double> xs{0.5, 1.5};
  const SweepResult sweep = run_sweep(
      base, protocols, xs,
      [](ScenarioConfig& config, double x) { config.traffic.offered_load_kbps = x; }, 2);
  std::ostringstream os;
  for (const auto& [name, metric] : mean_metrics()) {
    os << "## " << name << "\n";
    sweep_table(sweep, "load", metric, 17).print(os);
  }
  return os.str();
}

std::string golden_path(const std::string& name, const std::string& suffix) {
  return std::string{AQUAMAC_GOLDEN_DIR} + "/" + name + suffix;
}

std::string read_file(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  EXPECT_TRUE(is.good()) << "missing fixture " << path
                         << " (regenerate with AQUAMAC_UPDATE_GOLDEN=1)";
  return std::string{std::istreambuf_iterator<char>{is}, std::istreambuf_iterator<char>{}};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os{path, std::ios::binary};
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << "cannot write " << path;
}

bool updating() { return std::getenv("AQUAMAC_UPDATE_GOLDEN") != nullptr; }

/// Byte comparison of two containers; on mismatch, names what differs
/// (scenario text, time, or the first differing payload section).
void expect_same_container(const std::string& expected, const std::string& actual) {
  if (expected == actual) return;
  std::istringstream exp_is{expected};
  std::istringstream act_is{actual};
  const Checkpoint exp = read_checkpoint(exp_is);
  const Checkpoint act = read_checkpoint(act_is);
  EXPECT_EQ(exp.scenario_text, act.scenario_text);
  EXPECT_EQ(exp.at, act.at);
  ADD_FAILURE() << "checkpoint container differs: "
                << describe_payload_difference(exp.payload, act.payload);
}

class StateGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(StateGolden, CheckpointStatsAndSweepMatchFixtures) {
  const GoldenCase& golden = GetParam();
  ScenarioConfig config = golden.config;
  HashTrace trace;
  config.trace = &trace;
  const CheckpointedRun run = run_scenario_with_checkpoint(config, golden.checkpoint_at);
  EXPECT_GT(run.stats.packets_offered, 0u) << "idle run proves nothing";

  const std::string ckpt = container_bytes(run.checkpoint);
  const std::string json = stats_json_bytes(run.stats);
  const std::string sweep = tiny_sweep_text(golden.config);

  if (updating()) {
    write_file(golden_path(golden.name, ".ckpt"), ckpt);
    write_file(golden_path(golden.name, ".stats.json"), json);
    write_file(golden_path(golden.name, ".sweep.txt"), sweep);
    return;
  }
  expect_same_container(read_file(golden_path(golden.name, ".ckpt")), ckpt);
  EXPECT_EQ(read_file(golden_path(golden.name, ".stats.json")), json);
  EXPECT_EQ(read_file(golden_path(golden.name, ".sweep.txt")), sweep);
}

INSTANTIATE_TEST_SUITE_P(Matrix, StateGolden, ::testing::ValuesIn(golden_cases()),
                         [](const ::testing::TestParamInfo<GoldenCase>& param) {
                           return param.param.name;
                         });

}  // namespace
}  // namespace aquamac
