// Multi-hop relay layer (§3.1/Fig. 1): hop-by-hop forwarding toward
// surface sinks on top of the unmodified one-hop MAC.

#include <gtest/gtest.h>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "net/relay.hpp"
#include "testbed.hpp"

namespace aquamac {
namespace {

using testbed::TestBed;

TEST(RelayCountersTest, Additive) {
  RelayCounters a{};
  a.originated = 3;
  a.arrived_at_sink = 2;
  a.total_hops = 5;
  a.total_e2e_latency = Duration::seconds(10);
  RelayCounters b = a;
  a += b;
  EXPECT_EQ(a.originated, 6u);
  EXPECT_EQ(a.arrived_at_sink, 4u);
  EXPECT_EQ(a.total_hops, 10u);
  EXPECT_EQ(a.total_e2e_latency, Duration::seconds(20));
}

class RelayChain : public ::testing::Test {
 protected:
  // Vertical chain: a (3 km deep) -> b (1.5 km) -> c (surface sink).
  // a cannot reach c directly (3 km > range).
  RelayChain() {
    a_ = bed_.add_node(MacKind::kEwMac, Vec3{0, 0, 3'000});
    b_ = bed_.add_node(MacKind::kEwMac, Vec3{0, 0, 1'500});
    c_ = bed_.add_node(MacKind::kEwMac, Vec3{0, 0, 100});
    auto next_hop = [this](NodeId self) -> std::optional<NodeId> {
      if (self == a_) return b_;
      if (self == b_) return c_;
      return std::nullopt;
    };
    for (NodeId n : {a_, b_, c_}) {
      relays_.push_back(std::make_unique<RelayAgent>(bed_.sim(), bed_.mac(n), n,
                                                     /*is_sink=*/n == c_, next_hop));
    }
  }

  TestBed bed_;
  NodeId a_{}, b_{}, c_{};
  std::vector<std::unique_ptr<RelayAgent>> relays_;
};

TEST_F(RelayChain, TwoHopDeliveryToSink) {
  bed_.hello_and_settle();
  const Time origin_time = bed_.sim().now();
  relays_[0]->originate(2'048);
  bed_.sim().run_until(Time::from_seconds(120.0));

  EXPECT_EQ(relays_[0]->counters().originated, 1u);
  EXPECT_EQ(relays_[1]->counters().forwarded, 1u) << "b relayed";
  EXPECT_EQ(relays_[2]->counters().arrived_at_sink, 1u);
  EXPECT_EQ(relays_[2]->counters().total_hops, 2u);
  EXPECT_GT(relays_[2]->counters().total_e2e_latency.to_seconds(), 4.0)
      << "two slotted handshakes take several slots";
  (void)origin_time;
}

TEST_F(RelayChain, MacLevelCountersSeeBothHops) {
  bed_.hello_and_settle();
  relays_[0]->originate(2'048);
  bed_.sim().run_until(Time::from_seconds(120.0));
  // One MAC-level delivery at b and one at c.
  EXPECT_EQ(bed_.counters(b_).packets_delivered, 1u);
  EXPECT_EQ(bed_.counters(c_).packets_delivered, 1u);
}

TEST_F(RelayChain, BurstOfPacketsAllArrive) {
  bed_.hello_and_settle();
  for (int i = 0; i < 4; ++i) relays_[0]->originate(2'048);
  bed_.sim().run_until(Time::from_seconds(600.0));
  EXPECT_EQ(relays_[2]->counters().arrived_at_sink, 4u);
}

TEST(Relay, NoRouteCountsDrop) {
  TestBed bed;
  const NodeId lone = bed.add_node(MacKind::kEwMac, Vec3{0, 0, 1'000});
  RelayAgent relay{bed.sim(), bed.mac(lone), lone, /*is_sink=*/false,
                   [](NodeId) { return std::nullopt; }};
  relay.originate(2'048);
  EXPECT_EQ(relay.counters().dropped_no_route, 1u);
  EXPECT_EQ(relay.counters().originated, 0u);
}

TEST(Relay, HopLimitBreaksForwardingLoops) {
  // Adversarial next-hop map: a and b bounce the packet between each
  // other. The hop limit must stop the ping-pong.
  TestBed bed;
  const NodeId a = bed.add_node(MacKind::kEwMac, Vec3{0, 0, 500});
  const NodeId b = bed.add_node(MacKind::kEwMac, Vec3{0, 0, 1'200});
  auto bounce = [a, b](NodeId self) -> std::optional<NodeId> {
    return self == a ? b : a;
  };
  RelayAgent relay_a{bed.sim(), bed.mac(a), a, false, bounce, /*hop_limit=*/4};
  RelayAgent relay_b{bed.sim(), bed.mac(b), b, false, bounce, /*hop_limit=*/4};
  bed.hello_and_settle();
  relay_a.originate(1'024);
  bed.sim().run_until(Time::from_seconds(400.0));

  EXPECT_EQ(relay_a.counters().dropped_hop_limit + relay_b.counters().dropped_hop_limit, 1u);
  const std::uint64_t total_forwards =
      relay_a.counters().forwarded + relay_b.counters().forwarded;
  EXPECT_LE(total_forwards, 3u) << "hop 1 is the origination; forwards stop at the limit";
}

class MultiHopNetwork : public ::testing::TestWithParam<MacKind> {};

TEST_P(MultiHopNetwork, EndToEndStatsAreConsistent) {
  ScenarioConfig config = small_test_scenario();
  config.mac = GetParam();
  config.multi_hop = true;
  config.sim_time = Duration::seconds(200);
  config.traffic.offered_load_kbps = 0.2;
  const RunStats stats = run_scenario(config);

  EXPECT_GT(stats.e2e_originated, 0u);
  EXPECT_GT(stats.e2e_arrived_at_sink, 0u) << to_string(GetParam());
  EXPECT_LE(stats.e2e_delivery_ratio, 1.0 + 1e-12);
  EXPECT_GE(stats.mean_hops, 1.0);
  EXPECT_GT(stats.mean_e2e_latency_s, 0.0);
  // Sink arrivals cannot exceed MAC-level deliveries.
  EXPECT_LE(stats.e2e_arrived_at_sink, stats.packets_delivered);
}

INSTANTIATE_TEST_SUITE_P(Protocols, MultiHopNetwork,
                         ::testing::Values(MacKind::kEwMac, MacKind::kSFama),
                         [](const auto& param_info) {
                           std::string name{to_string(param_info.param)};
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(MultiHopNetworkStats, DisabledModeReportsZeros) {
  ScenarioConfig config = small_test_scenario();
  const RunStats stats = run_scenario(config);
  EXPECT_EQ(stats.e2e_originated, 0u);
  EXPECT_EQ(stats.e2e_arrived_at_sink, 0u);
  EXPECT_DOUBLE_EQ(stats.e2e_delivery_ratio, 0.0);
}

TEST(MultiHopNetworkStats, DeeperNodesTakeMoreHops) {
  ScenarioConfig config = small_test_scenario();
  config.mac = MacKind::kEwMac;
  config.multi_hop = true;
  config.deployment.kind = DeploymentKind::kLayeredColumn;
  config.deployment.width_m = 1'000.0;
  config.deployment.length_m = 1'000.0;
  config.deployment.depth_m = 4'000.0;
  config.deployment.layer_spacing_m = 1'000.0;
  config.node_count = 16;
  config.sim_time = Duration::seconds(300);
  const RunStats stats = run_scenario(config);
  EXPECT_GT(stats.mean_hops, 1.2) << "a 4-layer column needs multi-hop paths";
}

}  // namespace
}  // namespace aquamac
