// Bit-identity wall for the sharded conservative-PDES engine (see
// docs/parallel-des.md): sharded execution must replay the *exact* serial
// event order — not merely equivalent aggregate statistics. The tests pin
// that contract at three levels: (1) the Simulator itself, comparing the
// execution order of a hand-built lane workload across the serial loop,
// the windowed engine run serially (shards = 1) and genuinely concurrent
// shards; (2) whole scenarios, comparing HashTrace digests and stats for
// EW-MAC, CS-MAC and S-FAMA (including mobility + fault injection) at
// several shard counts; (3) the channel audit stream, whose deferred
// replay must reproduce the serial sequence of TransmissionAudits
// verbatim. The suite name is matched by the CI ThreadSanitizer job.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "channel/acoustic_channel.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "mac/mac_factory.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "stats/trace.hpp"

namespace aquamac {
namespace {

// --- level 1: the engine itself --------------------------------------

/// Runs a fixed four-lane workload — same-time key ties, own-lane
/// follow-ups inside the lookahead window, cross-lane (cross-shard)
/// pushes beyond it, a lane-0 "mobility tick", and a cancelled timer —
/// and returns the observed execution order. `shards` = 0 uses the plain
/// serial loop; otherwise the windowed engine with that many shards.
std::vector<int> run_engine_workload(unsigned shards) {
  Simulator sim;
  std::vector<int> order;
  // Shard workers may not touch `order` directly; defer_ordered replays
  // the writes at the barrier in exact serial order.
  auto record = [&sim, &order](int tag) {
    if (sim.in_parallel_region()) {
      sim.defer_ordered([&order, tag] { order.push_back(tag); });
    } else {
      order.push_back(tag);
    }
  };

  constexpr std::uint32_t kNodes = 4;
  sim.set_lane_count(kNodes + 1);
  if (shards > 0) {
    ShardingOptions options;
    for (std::uint32_t node = 0; node < kNodes; ++node) {
      options.shard_of_node.push_back(node % shards);
    }
    options.shards = shards;
    options.lookahead = [] { return Duration::milliseconds(10); };
    options.threads = shards;
    sim.enable_sharding(std::move(options));
  }

  for (std::uint32_t node = 0; node < kNodes; ++node) {
    const Simulator::LaneGuard lane{sim, node + 1};
    for (int k = 0; k < 5; ++k) {
      // Identical times on every lane: ties must break by (lane, seq).
      const Time when = Time::from_ns(1'000'000 + k * 2'000'000);
      sim.at(when, [&sim, record, node, k] {
        record(static_cast<int>(node) * 100 + k);
        if (k == 0) {
          // Own-lane follow-up well inside the conservative window.
          sim.in(Duration::microseconds(50),
                 [record, node] { record(static_cast<int>(node) * 100 + 90); });
        }
        if (k == 1) {
          // Cross-lane push to a lane of a *different* shard, landing
          // beyond the lookahead horizon as the channel's deliveries do.
          const std::uint32_t peer = ((node + 1) % kNodes) + 1;
          sim.at_lane(peer, sim.now() + Duration::milliseconds(25),
                      [record, node] { record(static_cast<int>(node) * 100 + 95); });
        }
        if (k == 2) {
          // A MAC-timer shape: schedule on the own lane, then cancel from
          // a later own-lane event before it can fire.
          const EventHandle timer =
              sim.in(Duration::seconds(5), [record, node] { record(-(static_cast<int>(node))); });
          sim.in(Duration::milliseconds(1), [&sim, record, node, timer]() mutable {
            record(static_cast<int>(node) * 100 + (sim.cancel(timer) ? 97 : 98));
          });
        }
      });
    }
  }
  {
    // Lane-0 events (mobility ticks, harness probes) run at barriers and
    // sort before equal-time node-lane events.
    sim.at(Time::from_ns(3'000'000), [record] { record(9'000); });
    sim.at(Time::from_seconds(1.0), [record] { record(9'001); });
  }

  sim.run();
  return order;
}

TEST(PdesDeterminism, WindowedEngineReplaysSerialEventOrder) {
  const std::vector<int> serial = run_engine_workload(0);
  ASSERT_FALSE(serial.empty());
  // 4 lanes x (5 base + follow-up + cross-lane + cancel-ack) + 2 global.
  EXPECT_EQ(serial.size(), 4u * 8u + 2u);
  // No cancelled timer fired (their tags are the only negative ones).
  for (const int tag : serial) EXPECT_GE(tag, 0);

  EXPECT_EQ(run_engine_workload(1), serial) << "windowed engine, single shard";
  EXPECT_EQ(run_engine_workload(2), serial) << "two concurrent shards";
  EXPECT_EQ(run_engine_workload(4), serial) << "one shard per lane";
}

// --- level 2: whole scenarios ----------------------------------------

struct RunOutput {
  std::uint64_t digest{0};
  RunStats stats{};
};

RunOutput run_with_shards(ScenarioConfig config, unsigned shards) {
  HashTrace trace;
  config.trace = &trace;
  config.shards = shards;
  RunOutput out;
  out.stats = run_scenario(config);
  out.digest = trace.digest();
  return out;
}

void expect_same_run(const RunOutput& serial, const RunOutput& sharded) {
  EXPECT_EQ(serial.digest, sharded.digest);
  EXPECT_NE(serial.digest, HashTrace{}.digest()) << "trace never exercised";
  EXPECT_GT(serial.stats.packets_offered, 0u) << "idle run proves nothing";
  EXPECT_EQ(serial.stats.packets_offered, sharded.stats.packets_offered);
  EXPECT_EQ(serial.stats.packets_delivered, sharded.stats.packets_delivered);
  EXPECT_EQ(serial.stats.packets_dropped, sharded.stats.packets_dropped);
  EXPECT_EQ(serial.stats.throughput_kbps, sharded.stats.throughput_kbps);
  EXPECT_EQ(serial.stats.mean_latency_s, sharded.stats.mean_latency_s);
  EXPECT_EQ(serial.stats.control_bits, sharded.stats.control_bits);
  EXPECT_EQ(serial.stats.maintenance_bits, sharded.stats.maintenance_bits);
  EXPECT_EQ(serial.stats.total_energy_j, sharded.stats.total_energy_j);
  EXPECT_EQ(serial.stats.rx_collisions, sharded.stats.rx_collisions);
  EXPECT_EQ(serial.stats.fairness_index, sharded.stats.fairness_index);
}

TEST(PdesDeterminism, ScenarioDigestsMatchSerialAcrossMacs) {
  for (const MacKind mac : {MacKind::kEwMac, MacKind::kCsMac, MacKind::kSFama}) {
    SCOPED_TRACE(to_string(mac));
    ScenarioConfig config = grid3d_scenario(96, 5);
    config.mac = mac;
    config.sim_time = Duration::seconds(10);
    expect_same_run(run_with_shards(config, 1), run_with_shards(config, 4));
  }
}

TEST(PdesDeterminism, MobilityAndFaultScenarioBitIdentical) {
  // The hard case: mobility re-positions nodes (lookahead re-derivation
  // at barriers), the fault plan schedules per-node timelines, and 10% of
  // the nodes die mid-run.
  ScenarioConfig config = random_volume_scenario(96, 11);
  config.mac = MacKind::kEwMac;
  config.sim_time = Duration::seconds(10);
  config.enable_mobility = true;
  config.fault.drift_ppm_stddev = 20.0;
  config.fault.outage_rate_per_hour = 12.0;
  config.fault.ge_p_bad = 0.05;
  config.fault.ge_loss_bad = 0.5;
  config.fault.storm_rate_per_hour = 4.0;
  config.node_failure_fraction = 0.1;
  expect_same_run(run_with_shards(config, 1), run_with_shards(config, 4));
}

TEST(PdesDeterminism, DigestInvariantAcrossShardCounts) {
  ScenarioConfig config = grid3d_scenario(96, 7);
  config.mac = MacKind::kCsMac;
  config.sim_time = Duration::seconds(10);
  const RunOutput serial = run_with_shards(config, 1);
  for (const unsigned shards : {2u, 4u, 8u}) {
    SCOPED_TRACE("shards = " + std::to_string(shards));
    expect_same_run(serial, run_with_shards(config, shards));
  }
}

// --- multi-hop DV routing across the sharded engine --------------------

void expect_same_multihop_run(const RunOutput& serial, const RunOutput& sharded) {
  expect_same_run(serial, sharded);
  EXPECT_GT(serial.stats.e2e_originated, 0u) << "no multi-hop traffic proves nothing";
  EXPECT_EQ(serial.stats.e2e_originated, sharded.stats.e2e_originated);
  EXPECT_EQ(serial.stats.e2e_arrived_at_sink, sharded.stats.e2e_arrived_at_sink);
  EXPECT_EQ(serial.stats.e2e_forwarded, sharded.stats.e2e_forwarded);
  EXPECT_EQ(serial.stats.e2e_dropped_no_route, sharded.stats.e2e_dropped_no_route);
  EXPECT_EQ(serial.stats.e2e_dropped_mac, sharded.stats.e2e_dropped_mac);
  EXPECT_EQ(serial.stats.mean_e2e_latency_s, sharded.stats.mean_e2e_latency_s);
  EXPECT_EQ(serial.stats.hop_stretch, sharded.stats.hop_stretch);
}

TEST(PdesDeterminism, DvRoutingDigestInvariantAcrossShardCounts) {
  // The routing layer adds cross-node state flow (piggybacked ads ingested
  // at reception, beacon timers per lane, triggered updates): all of it
  // must replay identically under the windowed engine.
  ScenarioConfig config = grid3d_scenario(96, 23);
  config.mac = MacKind::kEwMac;
  config.multi_hop = true;
  config.routing = RoutingKind::kDv;
  config.sim_time = Duration::seconds(12);
  const RunOutput serial = run_with_shards(config, 1);
  for (const unsigned shards : {2u, 4u, 8u}) {
    SCOPED_TRACE("shards = " + std::to_string(shards));
    expect_same_multihop_run(serial, run_with_shards(config, shards));
  }
}

TEST(PdesDeterminism, DvRoutingUnderFaultPlanBitIdentical) {
  // Route maintenance in anger: outages kill relays (neighbor_down,
  // invalidations, triggered updates, sequence waves on rejoin) while the
  // sharded engine runs the event loop concurrently.
  ScenarioConfig config = grid3d_scenario(96, 29);
  config.mac = MacKind::kCsMac;
  config.multi_hop = true;
  config.routing = RoutingKind::kDv;
  config.sim_time = Duration::seconds(12);
  config.fault.outage_rate_per_hour = 40.0;
  config.fault.outage_mean_duration = Duration::seconds(4);
  config.fault.ge_p_bad = 0.05;
  config.fault.ge_loss_bad = 0.5;
  expect_same_multihop_run(run_with_shards(config, 1), run_with_shards(config, 4));
}

TEST(PdesDeterminism, DvRoutingBitIdenticalAcrossJobs) {
  ScenarioConfig base = grid3d_scenario(64, 37);
  base.mac = MacKind::kSFama;
  base.multi_hop = true;
  base.routing = RoutingKind::kDv;
  base.sim_time = Duration::seconds(10);
  base.jobs = 1;
  const std::vector<RunStats> serial = run_replicated(base, 2);
  base.jobs = 4;
  const std::vector<RunStats> parallel = run_replicated(base, 2);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    SCOPED_TRACE("replication " + std::to_string(k));
    EXPECT_EQ(serial[k].e2e_originated, parallel[k].e2e_originated);
    EXPECT_EQ(serial[k].e2e_arrived_at_sink, parallel[k].e2e_arrived_at_sink);
    EXPECT_EQ(serial[k].e2e_forwarded, parallel[k].e2e_forwarded);
    EXPECT_EQ(serial[k].mean_e2e_latency_s, parallel[k].mean_e2e_latency_s);
    EXPECT_EQ(serial[k].total_energy_j, parallel[k].total_energy_j);
  }
}

// --- level 3: the audit stream ----------------------------------------

/// Flattens a TransmissionAudit into integers so whole sequences compare
/// with one EXPECT: sender, exact tx window, then every reach with its
/// receive window and decodability. Receiver *sets and order* must match.
void flatten_audit(const TransmissionAudit& audit, std::vector<std::int64_t>& out) {
  out.push_back(static_cast<std::int64_t>(audit.sender));
  out.push_back(audit.tx_window.begin.count_ns());
  out.push_back(audit.tx_window.end.count_ns());
  out.push_back(static_cast<std::int64_t>(audit.reaches.size()));
  for (const TransmissionAudit::Reach& reach : audit.reaches) {
    out.push_back(static_cast<std::int64_t>(reach.receiver));
    out.push_back(reach.window.begin.count_ns());
    out.push_back(reach.window.end.count_ns());
    out.push_back(reach.decodable ? 1 : 0);
  }
}

std::vector<std::int64_t> run_audited(ScenarioConfig config, unsigned shards) {
  config.shards = shards;
  Simulator sim{config.logger};
  Network network{sim, config};
  std::vector<std::int64_t> stream;
  network.channel().set_audit(
      [&stream](const TransmissionAudit& audit) { flatten_audit(audit, stream); });
  (void)network.run();
  return stream;
}

TEST(PdesDeterminism, AuditStreamsMatchSerialVerbatim) {
  ScenarioConfig config = grid3d_scenario(64, 9);
  config.mac = MacKind::kSFama;
  config.sim_time = Duration::seconds(10);
  const std::vector<std::int64_t> serial = run_audited(config, 1);
  ASSERT_FALSE(serial.empty()) << "scenario produced no transmissions";
  EXPECT_EQ(run_audited(config, 4), serial);
}

// --- jobs x shards: both parallelism layers at once --------------------

TEST(PdesDeterminism, ReplicationsBitIdenticalAcrossJobsTimesShards) {
  ScenarioConfig base = grid3d_scenario(64, 13);
  base.mac = MacKind::kEwMac;
  base.sim_time = Duration::seconds(8);
  base.shards = 2;  // every replication runs its own sharded engine
  base.jobs = 1;
  const std::vector<RunStats> serial = run_replicated(base, 3);
  base.jobs = 4;
  const std::vector<RunStats> parallel = run_replicated(base, 3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    SCOPED_TRACE("replication " + std::to_string(k));
    EXPECT_EQ(serial[k].packets_offered, parallel[k].packets_offered);
    EXPECT_EQ(serial[k].packets_delivered, parallel[k].packets_delivered);
    EXPECT_EQ(serial[k].throughput_kbps, parallel[k].throughput_kbps);
    EXPECT_EQ(serial[k].mean_latency_s, parallel[k].mean_latency_s);
    EXPECT_EQ(serial[k].control_bits, parallel[k].control_bits);
    EXPECT_EQ(serial[k].maintenance_bits, parallel[k].maintenance_bits);
    EXPECT_EQ(serial[k].total_energy_j, parallel[k].total_energy_j);
    EXPECT_EQ(serial[k].fairness_index, parallel[k].fairness_index);
  }
}

}  // namespace
}  // namespace aquamac
