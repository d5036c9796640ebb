#include <gtest/gtest.h>

#include <sstream>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "util/table.hpp"

namespace aquamac {
namespace {

MacCounters synthetic_counters() {
  MacCounters c{};
  c.packets_offered = 100;
  c.bits_offered = 100 * 2'048;
  c.packets_delivered = 80;
  c.bits_delivered = 80 * 2'048;
  c.packets_sent_ok = 80;
  c.bits_sent[frame_type_index(FrameType::kRts)] = 90 * 64;
  c.frames_sent[frame_type_index(FrameType::kRts)] = 90;
  c.bits_sent[frame_type_index(FrameType::kCts)] = 85 * 64;
  c.bits_sent[frame_type_index(FrameType::kAck)] = 80 * 64;
  c.bits_sent[frame_type_index(FrameType::kData)] = 85 * 2'048;
  c.bits_sent[frame_type_index(FrameType::kMaint)] = 10 * 500;
  c.bits_sent[frame_type_index(FrameType::kHello)] = 60 * 64;
  c.retransmitted_bits = 5 * 64;
  c.total_delivery_latency = Duration::seconds(160);
  c.latency_samples = 80;
  c.last_delivery_time = Time::from_seconds(250.0);
  return c;
}

TEST(Metrics, ComputeRunStatsEquations) {
  const MacCounters total = synthetic_counters();
  const RunStats stats = compute_run_stats(total, /*total_energy_j=*/600.0,
                                           /*node_count=*/60, Duration::seconds(310),
                                           Duration::seconds(300), Time::from_seconds(10.0));
  // Eq. (3): delivered bits / T.
  EXPECT_NEAR(stats.throughput_kbps, 80.0 * 2'048.0 / 300.0 / 1'000.0, 1e-12);
  EXPECT_NEAR(stats.offered_load_kbps, 100.0 * 2'048.0 / 300.0 / 1'000.0, 1e-12);
  EXPECT_NEAR(stats.delivery_ratio, 0.8, 1e-12);
  // mean power: 600 J over 310 s over 60 nodes.
  EXPECT_NEAR(stats.mean_power_mw, 600.0 / 310.0 / 60.0 * 1'000.0, 1e-9);
  // Overhead classes (Fig. 10): control excludes maintenance/hello.
  EXPECT_EQ(stats.control_bits, (90u + 85u + 80u) * 64u);
  EXPECT_EQ(stats.maintenance_bits, 10u * 500u + 60u * 64u);
  EXPECT_EQ(stats.retransmitted_bits, 5u * 64u);
  // Latency: 160 s over the 80 packets that contributed samples.
  EXPECT_NEAR(stats.mean_latency_s, 2.0, 1e-12);
  // Execution time relative to traffic start.
  EXPECT_NEAR(stats.execution_time_s, 240.0, 1e-12);
  // Eq. (4).
  EXPECT_NEAR(stats.efficiency_raw, stats.throughput_kbps / stats.mean_power_mw, 1e-15);
}

TEST(Metrics, ZeroDenominatorsAreSafe) {
  const RunStats stats =
      compute_run_stats(MacCounters{}, 0.0, 0, Duration::zero(), Duration::zero(), Time::zero());
  EXPECT_EQ(stats.throughput_kbps, 0.0);
  EXPECT_EQ(stats.mean_power_mw, 0.0);
  EXPECT_EQ(stats.mean_latency_s, 0.0);
  EXPECT_EQ(stats.efficiency_raw, 0.0);
}

TEST(Metrics, CountersAdditive) {
  MacCounters a = synthetic_counters();
  const MacCounters b = synthetic_counters();
  a += b;
  EXPECT_EQ(a.packets_offered, 200u);
  EXPECT_EQ(a.bits_delivered, 2u * 80u * 2'048u);
  EXPECT_EQ(a.frames_sent[frame_type_index(FrameType::kRts)], 180u);
  EXPECT_EQ(a.last_delivery_time, Time::from_seconds(250.0)) << "max, not sum";
  EXPECT_EQ(a.total_delivery_latency, Duration::seconds(320));
  EXPECT_EQ(a.latency_samples, 160u);
}

TEST(Metrics, MeanLatencyUsesSampleCountNotSentOk) {
  // Regression: mean latency used to divide by packets_sent_ok while the
  // latency sum was accumulated over a different packet set, so any
  // divergence between the two (e.g. ACK losses burning a packet's retry
  // budget after a successful earlier delivery) skewed the mean. The
  // divisor must be the count matched to the summed samples.
  MacCounters c{};
  c.packets_sent_ok = 10;
  c.total_delivery_latency = Duration::seconds(8);
  c.latency_samples = 4;
  const RunStats stats = compute_run_stats(c, 0.0, 1, Duration::seconds(100),
                                           Duration::seconds(100), Time::zero());
  EXPECT_NEAR(stats.mean_latency_s, 2.0, 1e-12);

  // No samples at all: safe zero even though packets_sent_ok is nonzero.
  MacCounters none{};
  none.packets_sent_ok = 10;
  const RunStats empty = compute_run_stats(none, 0.0, 1, Duration::seconds(100),
                                           Duration::seconds(100), Time::zero());
  EXPECT_EQ(empty.mean_latency_s, 0.0);
}

TEST(Harness, MeanOfAverages) {
  RunStats r1{};
  r1.throughput_kbps = 0.2;
  r1.mean_power_mw = 100.0;
  RunStats r2{};
  r2.throughput_kbps = 0.4;
  r2.mean_power_mw = 200.0;
  const MeanStats mean = mean_of({r1, r2});
  EXPECT_NEAR(mean.throughput_kbps, 0.3, 1e-12);
  EXPECT_NEAR(mean.mean_power_mw, 150.0, 1e-12);
}

TEST(Harness, MeanOfEmptyIsZero) {
  const MeanStats mean = mean_of({});
  EXPECT_EQ(mean.throughput_kbps, 0.0);
}

TEST(Harness, ReplicationVariesSeeds) {
  ScenarioConfig config = small_test_scenario();
  config.sim_time = Duration::seconds(30);
  const auto runs = run_replicated(config, 3);
  ASSERT_EQ(runs.size(), 3u);
  // At least two of the three runs must differ in accumulated energy.
  EXPECT_FALSE(runs[0].total_energy_j == runs[1].total_energy_j &&
               runs[1].total_energy_j == runs[2].total_energy_j);
}

TEST(Harness, SweepTableShape) {
  ScenarioConfig base = small_test_scenario();
  base.sim_time = Duration::seconds(20);
  const MacKind kinds[] = {MacKind::kSFama, MacKind::kEwMac};
  const double xs[] = {0.2, 0.4};
  const SweepResult sweep = run_sweep(
      base, kinds, xs,
      [](ScenarioConfig& c, double load) { c.traffic.offered_load_kbps = load; }, 1);

  EXPECT_EQ(sweep.xs.size(), 2u);
  EXPECT_EQ(sweep.series.at(MacKind::kSFama).size(), 2u);
  EXPECT_EQ(sweep.series.at(MacKind::kEwMac).size(), 2u);

  const Table table =
      sweep_table(sweep, "load", [](const MeanStats& m) { return m.throughput_kbps; });
  EXPECT_EQ(table.row_count(), 2u);
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("S-FAMA"), std::string::npos);
  EXPECT_NE(os.str().find("EW-MAC"), std::string::npos);
}

TEST(Harness, NormalizedTableBaselineIsOne) {
  ScenarioConfig base = small_test_scenario();
  base.sim_time = Duration::seconds(20);
  const MacKind kinds[] = {MacKind::kSFama, MacKind::kEwMac};
  const double xs[] = {0.3};
  const SweepResult sweep = run_sweep(
      base, kinds, xs,
      [](ScenarioConfig& c, double load) { c.traffic.offered_load_kbps = load; }, 1);
  const Table table = sweep_table_normalized(
      sweep, "load", [](const MeanStats& m) { return m.overhead_bits; }, 3);
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_NE(os.str().find(",1.000"), std::string::npos) << "S-FAMA column normalized to 1";
}

TEST(Harness, DescribeScenarioListsTable2Parameters) {
  const std::string sheet = describe_scenario(paper_default_scenario());
  for (const char* needle : {"60", "12 kbps", "1.5 km", "300 s", "64 bits", "2048"}) {
    EXPECT_NE(sheet.find(needle), std::string::npos) << needle;
  }
}

TEST(Harness, TableFormatting) {
  Table table{{"a", "bb"}};
  table.add_row({"1", "2"});
  table.add_row_numeric({3.14159, 2.0}, 2);
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("3.14"), std::string::npos);
  std::ostringstream csv;
  table.print_csv(csv);
  EXPECT_EQ(csv.str(), "a,bb\n1,2\n3.14,2.00\n");
}

TEST(Harness, MacKindRoundTrip) {
  for (MacKind kind : {MacKind::kEwMac, MacKind::kSFama, MacKind::kRopa, MacKind::kCsMac,
                       MacKind::kCwMac, MacKind::kSlottedAloha}) {
    EXPECT_EQ(mac_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW((void)mac_kind_from_string("NOPE"), std::invalid_argument);
}

}  // namespace
}  // namespace aquamac
