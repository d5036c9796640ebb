// Scale smoke: the N=1000 density-preserving scenario must build, run a
// short horizon with the spatial index on and the invariant auditor in
// hard-fail mode, and stay clean; the N=20000 scenario must build in
// linear time and memory. This is the CI guard that large-N machinery
// (scenario generators, router, index, auditor) keeps working without
// paying full bench cost.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "channel/propagation_cache.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "stats/invariant_auditor.hpp"

namespace aquamac {
namespace {

TEST(ScaleSmoke, Grid3dThousandNodesAuditsCleanWithIndexOn) {
  ScenarioConfig config = grid3d_scenario(1'000, /*seed=*/3);
  config.sim_time = Duration::seconds(15);

  InvariantAuditor::Config audit = auditor_config_for(config);
  audit.hard_fail = true;
  InvariantAuditor auditor{audit};
  config.trace = &auditor;

  RunStats stats{};
  try {
    stats = run_scenario(config);
  } catch (const std::runtime_error& e) {
    FAIL() << "auditor violation at N=1000: " << e.what();
  }
  EXPECT_EQ(stats.node_count, 1'000u);
  EXPECT_GT(stats.packets_offered, 0u);
  EXPECT_GT(auditor.checks(), 0u);
}

TEST(ScaleSmoke, Grid3dThousandNodesShardedMatchesSerialUnderAudit) {
  // The sharded engine at N=1000 with the auditor in hard-fail mode: the
  // run must stay invariant-clean AND produce the serial run's exact
  // statistics (bit-identity contract, see docs/parallel-des.md). This
  // doubles as the CI ThreadSanitizer smoke for the sharded data paths.
  ScenarioConfig config = grid3d_scenario(1'000, /*seed=*/3);
  config.sim_time = Duration::seconds(15);

  auto run_audited = [](ScenarioConfig run_config) {
    InvariantAuditor::Config audit = auditor_config_for(run_config);
    audit.hard_fail = true;
    InvariantAuditor auditor{audit};
    run_config.trace = &auditor;
    const RunStats stats = run_scenario(run_config);
    EXPECT_GT(auditor.checks(), 0u);
    return stats;
  };

  ScenarioConfig sharded = config;
  sharded.shards = 4;
  RunStats serial_stats{};
  RunStats sharded_stats{};
  try {
    serial_stats = run_audited(config);
    sharded_stats = run_audited(sharded);
  } catch (const std::runtime_error& e) {
    FAIL() << "auditor violation at N=1000: " << e.what();
  }
  EXPECT_EQ(serial_stats.packets_offered, sharded_stats.packets_offered);
  EXPECT_EQ(serial_stats.packets_delivered, sharded_stats.packets_delivered);
  EXPECT_EQ(serial_stats.throughput_kbps, sharded_stats.throughput_kbps);
  EXPECT_EQ(serial_stats.mean_latency_s, sharded_stats.mean_latency_s);
  EXPECT_EQ(serial_stats.total_energy_j, sharded_stats.total_energy_j);
  EXPECT_EQ(serial_stats.rx_collisions, sharded_stats.rx_collisions);
}

TEST(ScaleSmoke, TwentyThousandNodeNetworkBuildsWithoutPairTables) {
  // Construction only (no run): the router's grid-binned candidates must
  // match the all-pairs definition, and a network above the path-cache
  // ceiling must not allocate an N^2 table.
  constexpr std::size_t kNodes = 20'000;
  const ScenarioConfig config = grid3d_scenario(kNodes, /*seed=*/7);
  Simulator sim;
  Network network{sim, config};
  static_assert(kNodes > PropagationCache::kMaxCachedId + 1);
  EXPECT_EQ(network.channel().path_cache_entries(), 0u);
  EXPECT_EQ(network.channel().modem_count(), kNodes);

  std::vector<Vec3> positions;
  positions.reserve(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    positions.push_back(network.node(static_cast<NodeId>(i)).modem().position());
  }
  const double range_m = config.channel.comm_range_m;
  const UphillRouter& router = network.router();
  std::size_t sampled_sources = 0;
  for (std::size_t i = 0; i < kNodes; i += 40) {  // 500 nodes
    std::vector<NodeId> expected;
    for (std::size_t j = 0; j < kNodes; ++j) {
      if (positions[j].z < positions[i].z && positions[i].distance_to(positions[j]) <= range_m) {
        expected.push_back(static_cast<NodeId>(j));
      }
    }
    ASSERT_EQ(router.candidates(static_cast<NodeId>(i)), expected) << "node " << i;
    if (!expected.empty()) ++sampled_sources;
  }
  EXPECT_GT(sampled_sources, 400u) << "the grid should be mostly uphill-connected";
}

TEST(ScaleSmoke, NetworkAtOrBelowTheCeilingSizesItsTableOnce) {
  constexpr std::size_t kNodes = 300;
  const ScenarioConfig config = grid3d_scenario(kNodes, /*seed=*/7);
  Simulator sim;
  Network network{sim, config};
  EXPECT_EQ(network.channel().path_cache_entries(), kNodes * kNodes);
}

TEST(ScaleSmoke, ScaleScenariosPreserveDensity) {
  // The point of the generators: density (hence local contention) must
  // not change with N, only the region and aggregate load.
  const ScenarioConfig small = grid3d_scenario(200, 1);
  const ScenarioConfig large = grid3d_scenario(1'600, 1);
  const double density_small = 200.0 / (small.deployment.width_m * small.deployment.length_m *
                                        small.deployment.depth_m);
  const double density_large = 1'600.0 / (large.deployment.width_m *
                                          large.deployment.length_m *
                                          large.deployment.depth_m);
  EXPECT_NEAR(density_small, density_large, density_small * 1e-9);
  // 8x the nodes -> 2x the side.
  EXPECT_NEAR(large.deployment.width_m, 2.0 * small.deployment.width_m,
              small.deployment.width_m * 1e-9);
  EXPECT_DOUBLE_EQ(large.traffic.offered_load_kbps / 1'600.0,
                   small.traffic.offered_load_kbps / 200.0);
}

TEST(ScaleSmoke, RandomVolumeScenarioIsSeedDeterministic) {
  ScenarioConfig a = random_volume_scenario(120, 5);
  ScenarioConfig b = random_volume_scenario(120, 5);
  a.sim_time = Duration::seconds(10);
  b.sim_time = Duration::seconds(10);
  Simulator sim_a;
  Network net_a{sim_a, a};
  Simulator sim_b;
  Network net_b{sim_b, b};
  for (std::size_t i = 0; i < 120; ++i) {
    EXPECT_EQ(net_a.node(static_cast<NodeId>(i)).modem().position(),
              net_b.node(static_cast<NodeId>(i)).modem().position());
  }
}

}  // namespace
}  // namespace aquamac
