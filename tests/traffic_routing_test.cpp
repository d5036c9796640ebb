#include "net/routing.hpp"
#include "net/traffic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "net/deployment.hpp"

namespace aquamac {
namespace {

TEST(UphillRouter, OnlyShallowerInRangeCandidates) {
  const std::vector<Vec3> positions{
      {0, 0, 3'000},    // 0: deep
      {0, 0, 2'000},    // 1: above 0, in range
      {0, 0, 1'000},    // 2: above 1, in range of 1, out of range of 0
      {5'000, 0, 100},  // 3: shallow but far from everyone
  };
  const UphillRouter router{positions, 1'500.0};
  EXPECT_EQ(router.candidates(0), (std::vector<NodeId>{1}));
  EXPECT_EQ(router.candidates(1), (std::vector<NodeId>{2}));
  EXPECT_TRUE(router.is_sink(2)) << "nothing shallower in range";
  EXPECT_TRUE(router.is_sink(3));
  EXPECT_EQ(router.source_count(), 2u);
}

TEST(UphillRouter, PickIsAlwaysACandidate) {
  const std::vector<Vec3> positions{
      {0, 0, 2'000}, {500, 0, 1'000}, {0, 500, 1'200}, {200, 200, 900}};
  const UphillRouter router{positions, 1'500.0};
  Rng rng{1};
  for (int i = 0; i < 200; ++i) {
    const auto dst = router.pick_destination(0, rng);
    ASSERT_TRUE(dst.has_value());
    const auto& c = router.candidates(0);
    EXPECT_NE(std::find(c.begin(), c.end(), *dst), c.end());
  }
}

TEST(UphillRouter, SinkPicksNothing) {
  const std::vector<Vec3> positions{{0, 0, 100}, {0, 0, 2'000}};
  const UphillRouter router{positions, 1'500.0};
  Rng rng{1};
  EXPECT_FALSE(router.pick_destination(0, rng).has_value());
}

// --- differential: the grid-binned router vs the all-pairs definition ---

/// The definition UphillRouter must reproduce: every strictly shallower
/// node within range, in ascending id order.
std::vector<std::vector<NodeId>> brute_force_candidates(const std::vector<Vec3>& positions,
                                                        double range_m) {
  std::vector<std::vector<NodeId>> out(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = 0; j < positions.size(); ++j) {
      if (i != j && positions[j].z < positions[i].z &&
          positions[i].distance_to(positions[j]) <= range_m) {
        out[i].push_back(static_cast<NodeId>(j));
      }
    }
  }
  return out;
}

void expect_matches_brute_force(const std::vector<Vec3>& positions, double range_m) {
  const UphillRouter router{positions, range_m};
  const auto expected = brute_force_candidates(positions, range_m);
  std::size_t sources = 0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    ASSERT_EQ(router.candidates(id), expected[i]) << "node " << i << " at range " << range_m;
    EXPECT_EQ(router.is_sink(id), expected[i].empty()) << "node " << i;
    if (!expected[i].empty()) ++sources;
  }
  EXPECT_EQ(router.source_count(), sources);
}

std::vector<Vec3> deploy(DeploymentKind kind, std::size_t count, double side_m,
                         double jitter_m, std::uint64_t seed) {
  DeploymentConfig config{};
  config.kind = kind;
  config.width_m = side_m;
  config.length_m = side_m;
  config.depth_m = side_m;
  config.jitter_m = jitter_m;
  Rng rng{seed};
  return generate_deployment(config, count, rng);
}

TEST(UphillRouterDifferential, GridWithJitterMatchesBruteForce) {
  // ~0.85 nodes/km^3, the scale scenarios' density, up to N = 3000.
  for (const std::size_t n : {50u, 700u, 3'000u}) {
    const double side_m = std::cbrt(static_cast<double>(n) / 0.849) * 1'000.0;
    expect_matches_brute_force(deploy(DeploymentKind::kGrid, n, side_m, 100.0, n), 1'500.0);
  }
  // Denser and sparser than one neighbor cell.
  const auto dense = deploy(DeploymentKind::kGrid, 1'000, 5'000.0, 150.0, 11);
  expect_matches_brute_force(dense, 1'500.0);
  expect_matches_brute_force(dense, 400.0);
}

TEST(UphillRouterDifferential, UniformBoxMatchesBruteForce) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto positions = deploy(DeploymentKind::kUniformBox, 2'000, 12'000.0, 0.0, seed);
    expect_matches_brute_force(positions, 1'500.0);
    expect_matches_brute_force(positions, 3'000.0);
  }
  // The paper scenarios' 2.25 km box spans two cells per axis, so every
  // node is in every other's neighbourhood.
  expect_matches_brute_force(deploy(DeploymentKind::kUniformBox, 200, 2'250.0, 0.0, 4), 1'500.0);
}

TEST(UphillRouterDifferential, LatticeOnCellBoundariesAtExactlyTheRange) {
  // Every coordinate a multiple of the range: nodes sit exactly on cell
  // boundaries, axis neighbors are exactly range_m apart, and whole
  // layers share one depth.
  constexpr double kRange = 1'500.0;
  std::vector<Vec3> lattice;
  for (int x = -3; x <= 3; ++x) {
    for (int y = -2; y <= 2; ++y) {
      for (int z = 0; z <= 4; ++z) {
        lattice.push_back({x * kRange, y * kRange, z * kRange});
      }
    }
  }
  expect_matches_brute_force(lattice, kRange);
  const UphillRouter router{lattice, kRange};
  // (0, 0, 1500) has exactly one uphill neighbor: straight above, at range.
  const auto below_origin = static_cast<NodeId>(3 * 25 + 2 * 5 + 1);
  ASSERT_EQ(lattice[below_origin], (Vec3{0.0, 0.0, kRange}));
  EXPECT_EQ(router.candidates(below_origin), (std::vector<NodeId>{below_origin - 1}));
}

TEST(UphillRouterDifferential, HandPlacedEdgeCasesMatchBruteForce) {
  constexpr double kRange = 1'500.0;
  const std::vector<Vec3> positions{
      {0.0, 0.0, 3'000.0},
      // Exactly range above node 0; 3-4-5 at exactly range from 0 at equal
      // depth; exactly range from 1 horizontally.
      {0.0, 0.0, 1'500.0},
      {900.0, 1'200.0, 3'000.0},
      {900.0, 1'200.0, 1'500.0},
      // Just below zero (the cell left of 0) and exactly range_m away once
      // rounded: two cells apart if cells were exactly range_m wide.
      {-1e-300, 0.0, 2'000.0},
      {kRange, 0.0, 2'000.0 - 1e-9},
      {-1e-300, 500.0, 1'000.0 - 1e-9},
      {kRange, 500.0, 1'000.0},
      // On, just below and just above the next cell boundary.
      {kRange, 0.0, 2'000.0},
      {std::nextafter(kRange, 0.0), 0.0, 2'000.0},
      {std::nextafter(kRange, 1e9), 0.0, 1'999.0},
      // Negative cells, co-located with node 0, a hair shallower than 0,
      // isolated, and at the surface.
      {-kRange, -kRange, 1'600.0},
      {0.0, 0.0, 3'000.0},
      {0.0, 0.0, 2'999.999999},
      {1e6, 1e6, 0.0},
      {0.0, 0.0, 0.0},
  };
  expect_matches_brute_force(positions, kRange);
  expect_matches_brute_force(positions, 0.5);  // range below the 1 m cell floor
  expect_matches_brute_force(positions, 0.0);
  expect_matches_brute_force(positions, 1e7);  // everyone in one cell
}

TEST(PerNodeRate, MatchesAggregateLoad) {
  TrafficConfig config{};
  config.offered_load_kbps = 0.5;        // 500 bits/s network-wide
  config.packet_bits_min = 2'048;
  config.packet_bits_max = 2'048;
  const double rate = per_node_packet_rate(config, 50);
  EXPECT_NEAR(rate * 50.0 * 2'048.0, 500.0, 1e-9);
}

TEST(PerNodeRate, ZeroSources) {
  EXPECT_DOUBLE_EQ(per_node_packet_rate(TrafficConfig{}, 0), 0.0);
}

TEST(PerNodeRate, VariableSizeUsesMean) {
  TrafficConfig config{};
  config.offered_load_kbps = 1.0;
  config.packet_bits_min = 1'024;
  config.packet_bits_max = 4'096;  // mean 2560
  EXPECT_NEAR(per_node_packet_rate(config, 10) * 10.0 * 2'560.0, 1'000.0, 1e-9);
}

TEST(TrafficSource, PoissonRateRealized) {
  Simulator sim;
  TrafficConfig config{};
  config.mode = TrafficMode::kPoisson;
  std::uint64_t emitted = 0;
  TrafficSource source{sim, config, /*node_rate_pps=*/2.0, Rng{42},
                       [&](std::uint32_t bits) {
                         EXPECT_EQ(bits, 2'048u);
                         ++emitted;
                       }};
  source.start(Time::zero(), 0);
  sim.run_until(Time::from_seconds(1'000.0));
  // 2 packets/s over 1000 s => ~2000, Poisson sd ~45.
  EXPECT_NEAR(static_cast<double>(emitted), 2'000.0, 200.0);
  EXPECT_EQ(source.generated(), emitted);
}

TEST(TrafficSource, ZeroRateEmitsNothing) {
  Simulator sim;
  TrafficConfig config{};
  TrafficSource source{sim, config, 0.0, Rng{1}, [](std::uint32_t) { FAIL(); }};
  source.start(Time::zero(), 0);
  sim.run_until(Time::from_seconds(100.0));
}

TEST(TrafficSource, BatchInjectsExactCount) {
  Simulator sim;
  TrafficConfig config{};
  config.mode = TrafficMode::kBatch;
  std::uint64_t emitted = 0;
  TrafficSource source{sim, config, 0.0, Rng{2}, [&](std::uint32_t) { ++emitted; }};
  source.start(Time::from_seconds(5.0), 17);
  sim.run();
  EXPECT_EQ(emitted, 17u);
  // All within the 1 s stagger window after start.
  EXPECT_LE(sim.now().to_seconds(), 6.0);
  EXPECT_GE(sim.now().to_seconds(), 5.0);
}

TEST(TrafficSource, VariableSizesWithinRange) {
  Simulator sim;
  TrafficConfig config{};
  config.mode = TrafficMode::kBatch;
  config.packet_bits_min = 1'024;
  config.packet_bits_max = 4'096;
  bool saw_below_mid = false;
  bool saw_above_mid = false;
  TrafficSource source{sim, config, 0.0, Rng{3}, [&](std::uint32_t bits) {
                         ASSERT_GE(bits, 1'024u);
                         ASSERT_LE(bits, 4'096u);
                         saw_below_mid |= bits < 2'560;
                         saw_above_mid |= bits > 2'560;
                       }};
  source.start(Time::zero(), 200);
  sim.run();
  EXPECT_TRUE(saw_below_mid);
  EXPECT_TRUE(saw_above_mid);
}

}  // namespace
}  // namespace aquamac
