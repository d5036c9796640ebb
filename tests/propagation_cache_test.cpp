// PropagationCache correctness: cached paths are the bit-identical
// doubles the model computes, position changes invalidate, and every path
// a network delivers with matches the brute-force reach oracle — static,
// mobile, and above the table ceiling where nothing is cached.

#include "channel/propagation_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "channel/reception.hpp"
#include "harness/scenario.hpp"
#include "net/network.hpp"
#include "reach_oracle.hpp"
#include "sim/simulator.hpp"

namespace aquamac {
namespace {

constexpr double kFreqKhz = 10.0;

void expect_same_path(const PropagationModel::Path& a, const PropagationModel::Path& b) {
  EXPECT_EQ(a.delay, b.delay);
  EXPECT_EQ(a.loss_db, b.loss_db);
  EXPECT_EQ(a.length_m, b.length_m);
}

class PropagationCacheTest : public ::testing::Test {
 protected:
  AcousticModem& add_modem(NodeId id, Vec3 position) {
    auto modem =
        std::make_unique<AcousticModem>(sim_, id, ModemConfig{}, reception_, Rng{100 + id});
    modem->set_position(position);
    modems_.push_back(std::move(modem));
    return *modems_.back();
  }

  Simulator sim_;
  StraightLinePropagation model_{1'500.0};
  DeterministicCollisionModel reception_;
  std::vector<std::unique_ptr<AcousticModem>> modems_;
};

TEST_F(PropagationCacheTest, CachedPathEqualsFreshCompute) {
  PropagationCache cache{model_, kFreqKhz};
  AcousticModem& a = add_modem(0, {0.0, 0.0, 100.0});
  AcousticModem& b = add_modem(1, {1'000.0, 500.0, 300.0});
  cache.size_for(2);

  const auto expected = model_.compute(a.position(), b.position(), kFreqKhz);
  expect_same_path(cache.direct(a, b), expected);  // miss: computes
  expect_same_path(cache.direct(a, b), expected);  // hit: replays
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(PropagationCacheTest, DirectionsAreCachedIndependently) {
  PropagationCache cache{model_, kFreqKhz};
  AcousticModem& a = add_modem(0, {0.0, 0.0, 100.0});
  AcousticModem& b = add_modem(1, {2'000.0, 0.0, 400.0});
  cache.size_for(2);

  expect_same_path(cache.direct(a, b), model_.compute(a.position(), b.position(), kFreqKhz));
  expect_same_path(cache.direct(b, a), model_.compute(b.position(), a.position(), kFreqKhz));
  EXPECT_EQ(cache.misses(), 2u);  // (a,b) and (b,a) are distinct keys
  expect_same_path(cache.direct(b, a), model_.compute(b.position(), a.position(), kFreqKhz));
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(PropagationCacheTest, MovingAnEndpointInvalidates) {
  PropagationCache cache{model_, kFreqKhz};
  AcousticModem& a = add_modem(0, {0.0, 0.0, 100.0});
  AcousticModem& b = add_modem(1, {1'000.0, 0.0, 100.0});
  cache.size_for(2);

  (void)cache.direct(a, b);
  EXPECT_EQ(cache.misses(), 1u);

  b.set_position({1'500.0, 200.0, 150.0});  // mobility update
  const auto expected = model_.compute(a.position(), b.position(), kFreqKhz);
  expect_same_path(cache.direct(a, b), expected);  // recomputed, not stale
  EXPECT_EQ(cache.misses(), 2u);
  expect_same_path(cache.direct(a, b), expected);  // fresh entry now hits
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(PropagationCacheTest, SettingTheSamePositionDoesNotInvalidate) {
  PropagationCache cache{model_, kFreqKhz};
  AcousticModem& a = add_modem(0, {0.0, 0.0, 100.0});
  AcousticModem& b = add_modem(1, {1'000.0, 0.0, 100.0});
  cache.size_for(2);

  (void)cache.direct(a, b);
  const auto epoch = b.position_epoch();
  b.set_position(b.position());  // no actual movement
  EXPECT_EQ(b.position_epoch(), epoch);
  (void)cache.direct(a, b);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(PropagationCacheTest, SurfaceEchoMatchesImageSourcePath) {
  PropagationCache cache{model_, kFreqKhz, /*cache_echo=*/true};
  AcousticModem& a = add_modem(0, {0.0, 0.0, 200.0});
  AcousticModem& b = add_modem(1, {1'200.0, 300.0, 350.0});
  cache.size_for(2);

  constexpr double kReflectionLossDb = 6.0;
  const auto expected =
      surface_echo_path(model_, a.position(), b.position(), kFreqKhz, kReflectionLossDb);
  expect_same_path(cache.surface_echo(a, b, kReflectionLossDb), expected);
  expect_same_path(cache.surface_echo(a, b, kReflectionLossDb), expected);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(PropagationCacheTest, IdsBeyondTheTableAreServedUncached) {
  PropagationCache cache{model_, kFreqKhz};
  AcousticModem& a = add_modem(0, {0.0, 0.0, 100.0});
  // An id past the table dimension (size_for(2) covers ids 0 and 1)
  // falls through to a fresh compute.
  AcousticModem& far = add_modem(1'000, {900.0, 0.0, 100.0});
  cache.size_for(2);

  const auto expected = model_.compute(a.position(), far.position(), kFreqKhz);
  expect_same_path(cache.direct(a, far), expected);
  expect_same_path(cache.direct(a, far), expected);
  EXPECT_EQ(cache.hits(), 0u);  // never cached, always recomputed
  EXPECT_EQ(cache.misses(), 2u);
}

TEST_F(PropagationCacheTest, WorksBeforeSizeFor) {
  PropagationCache cache{model_, kFreqKhz};
  AcousticModem& a = add_modem(0, {0.0, 0.0, 100.0});
  AcousticModem& b = add_modem(1, {700.0, 0.0, 100.0});
  // No size_for: table is empty, everything falls through.
  EXPECT_EQ(cache.table_entries(), 0u);
  expect_same_path(cache.direct(a, b), model_.compute(a.position(), b.position(), kFreqKhz));
  EXPECT_EQ(cache.hits(), 0u);
}

TEST_F(PropagationCacheTest, TableCoversExactlyTheNodeCount) {
  PropagationCache cache{model_, kFreqKhz};
  AcousticModem& a = add_modem(0, {0.0, 0.0, 100.0});
  AcousticModem& last = add_modem(2, {800.0, 0.0, 100.0});
  AcousticModem& outside = add_modem(3, {0.0, 900.0, 100.0});
  cache.size_for(3);
  EXPECT_EQ(cache.table_entries(), 9u);

  (void)cache.direct(a, last);
  (void)cache.direct(a, last);
  EXPECT_EQ(cache.hits(), 1u) << "id 2 is inside a 3-node table";
  (void)cache.direct(a, outside);
  (void)cache.direct(a, outside);
  EXPECT_EQ(cache.hits(), 1u) << "id 3 is outside a 3-node table";
}

TEST_F(PropagationCacheTest, AboveTheCeilingNoTableIsAllocated) {
  PropagationCache cache{model_, kFreqKhz, /*cache_echo=*/true};
  AcousticModem& a = add_modem(0, {0.0, 0.0, 100.0});
  AcousticModem& b = add_modem(1, {1'000.0, 0.0, 100.0});
  cache.size_for(static_cast<std::size_t>(PropagationCache::kMaxCachedId) + 2);
  EXPECT_EQ(cache.table_entries(), 0u);

  const auto expected = model_.compute(a.position(), b.position(), kFreqKhz);
  expect_same_path(cache.direct(a, b), expected);
  expect_same_path(cache.direct(a, b), expected);
  (void)cache.surface_echo(a, b, 6.0);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 3u);
}

// --- network level: every cached path the channel delivers with must
// equal the brute-force reach oracle's fresh computation --------------

/// One serial run with the reach oracle as the channel audit; returns
/// the channel's cache hits after expecting every transmission to match.
std::uint64_t cache_hits_against_oracle(const ScenarioConfig& config,
                                        std::size_t expected_entries) {
  Simulator sim;
  Network network{sim, config};
  EXPECT_EQ(network.channel().path_cache_entries(), expected_entries);
  const ReachOracle oracle{network};
  (void)network.run();
  EXPECT_GT(oracle.audits(), 0u);
  EXPECT_EQ(oracle.mismatches(), 0u) << oracle.first_mismatch();
  return network.channel().path_cache_hits();
}

TEST(PropagationCacheNetwork, StaticScenarioMatchesTheReachOracle) {
  ScenarioConfig config = small_test_scenario();
  config.sim_time = Duration::seconds(30);
  ASSERT_FALSE(config.enable_mobility);
  const std::size_t n = config.node_count;
  EXPECT_GT(cache_hits_against_oracle(config, n * n), 0u);
}

TEST(PropagationCacheNetwork, StaticNetworkAboveTheCeilingMatchesTheReachOracle) {
  // Just past kMaxCachedId + 1 nodes the channel keeps no pair table and
  // computes every path fresh.
  constexpr std::size_t kNodes = 2'100;
  static_assert(kNodes > PropagationCache::kMaxCachedId + 1);
  ScenarioConfig config = grid3d_scenario(kNodes, /*seed=*/5);
  config.enable_mobility = false;
  config.sim_time = Duration::seconds(12);
  EXPECT_EQ(cache_hits_against_oracle(config, 0), 0u);
}

TEST(PropagationCacheNetwork, MobileScenarioMatchesTheReachOracle) {
  ScenarioConfig config = small_test_scenario();
  config.sim_time = Duration::seconds(30);
  config.enable_mobility = true;
  config.mobility.speed_mps = 1.0;
  const std::size_t n = config.node_count;
  EXPECT_GT(cache_hits_against_oracle(config, n * n), 0u);
}

}  // namespace
}  // namespace aquamac
