// Regression tests for the ordering hazards the aquamac-lint sweep fixed
// (PR 5): NeighborTable moved from unordered_map to std::map because its
// iteration feeds frames and traces — CS-MAC ships a *prefix* of the
// table in every RTS/CTS (attach_neighbor_info), so with hash-ordered
// iteration WHICH entries rode along depended on bucket layout: a silent,
// stdlib-specific leak into the event stream. These tests pin the new
// contract: iteration is ascending NodeId, independent of insertion
// order, and a CS-MAC run (shipping enabled) is digest-stable and
// bit-identical across worker counts.

#include "net/neighbor_table.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "mac/mac_factory.hpp"
#include "stats/trace.hpp"

namespace aquamac {
namespace {

TEST(NeighborTableOrdering, EntriesIterateInAscendingIdOrder) {
  NeighborTable table;
  const Time now = Time::from_seconds(1.0);
  // Scrambled insertion order, including ids that straddle typical
  // hash-bucket boundaries.
  for (const NodeId id : {7u, 1u, 40u, 3u, 19u, 2u, 33u, 0u, 8u}) {
    table.update(id, Duration::milliseconds(id + 1), now);
  }
  std::vector<NodeId> seen;
  for (const auto& [id, entry] : table.entries()) seen.push_back(id);
  const std::vector<NodeId> expected{0, 1, 2, 3, 7, 8, 19, 33, 40};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(table.neighbor_ids(), expected);
}

TEST(NeighborTableOrdering, IterationOrderIndependentOfInsertionOrder) {
  const Time now = Time::from_seconds(2.0);
  NeighborTable forward;
  NeighborTable backward;
  for (NodeId id = 0; id < 20; ++id) {
    forward.update(id, Duration::milliseconds(id), now);
  }
  for (NodeId id = 20; id-- > 0;) {
    backward.update(id, Duration::milliseconds(id), now);
  }
  // The sequences a prefix-consumer (CS-MAC shipping) sees must match.
  auto first_four = [](const NeighborTable& t) {
    std::vector<NodeId> out;
    for (const auto& [id, entry] : t.entries()) {
      if (out.size() >= 4) break;
      out.push_back(id);
    }
    return out;
  };
  EXPECT_EQ(first_four(forward), first_four(backward));
  EXPECT_EQ(first_four(forward), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(NeighborTableOrdering, EvictionReportIsAscendingWithoutASortPass) {
  NeighborTable table;
  for (const NodeId id : {11u, 4u, 29u, 6u}) {
    table.update(id, Duration::milliseconds(1), Time::from_seconds(1.0));
  }
  table.update(2, Duration::milliseconds(1), Time::from_seconds(50.0));
  const std::vector<NodeId> evicted =
      table.evict_older_than(Duration::seconds(10), Time::from_seconds(60.0));
  EXPECT_EQ(evicted, (std::vector<NodeId>{4, 6, 11, 29}));
  EXPECT_TRUE(table.knows(2));
  EXPECT_EQ(table.size(), 1u);
}

/// CS-MAC with neighbor-info shipping active (the factory defaults
/// two_hop_entries_shipped to 4): the run that exercised the old
/// hash-order prefix bug end to end.
ScenarioConfig csmac_scenario() {
  ScenarioConfig config = small_test_scenario();
  config.mac = MacKind::kCsMac;
  config.node_count = 8;
  config.sim_time = Duration::seconds(20);
  return config;
}

TEST(OrderingDeterminism, CsMacShippingRunIsDigestStable) {
  ScenarioConfig config = csmac_scenario();
  HashTrace first;
  HashTrace second;
  config.trace = &first;
  const RunStats stats_a = run_scenario(config);
  config.trace = &second;
  const RunStats stats_b = run_scenario(config);
  EXPECT_EQ(first.digest(), second.digest());
  EXPECT_EQ(stats_a.packets_delivered, stats_b.packets_delivered);
  EXPECT_EQ(stats_a.maintenance_bits, stats_b.maintenance_bits);
  // The run must actually exercise the trace (digest of nothing proves
  // nothing).
  EXPECT_NE(first.digest(), HashTrace{}.digest());
}

TEST(OrderingDeterminism, CsMacReplicationsBitIdenticalAcrossJobCounts) {
  ScenarioConfig base = csmac_scenario();
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
