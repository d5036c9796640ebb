// The parallel trace contract: a shared TraceSink handed to
// run_replicated / run_sweep receives the per-run traces merged by
// (sim time, run index, intra-run order) — the identical stream for
// every jobs value, so tracing no longer forces the harness serial.

#include "stats/trace.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "mac/mac_factory.hpp"

namespace aquamac {
namespace {

ScenarioConfig tiny_scenario() {
  ScenarioConfig config = small_test_scenario();
  config.node_count = 8;
  config.sim_time = Duration::seconds(20);
  return config;
}

TraceEvent event_at(double t_s, std::uint64_t seq) {
  TraceEvent event{};
  event.kind = TraceEventKind::kTxStart;
  event.at = Time::from_seconds(t_s);
  event.seq = seq;
  return event;
}

TEST(TraceMerge, OrdersByTimeThenRunThenIntraRunOrder) {
  std::vector<std::unique_ptr<MemoryTrace>> runs;
  runs.push_back(std::make_unique<MemoryTrace>());
  runs.push_back(std::make_unique<MemoryTrace>());
  // Run 0 records two events at t=5 (in order), run 1 an earlier event
  // and another t=5 event. Ties break by run index, then record order.
  runs[0]->record(event_at(5.0, 10));
  runs[0]->record(event_at(5.0, 11));
  runs[1]->record(event_at(3.0, 20));
  runs[1]->record(event_at(5.0, 21));

  MemoryTrace merged;
  merge_traces(runs, merged);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged.events()[0].seq, 20u);
  EXPECT_EQ(merged.events()[1].seq, 10u);
  EXPECT_EQ(merged.events()[2].seq, 11u);
  EXPECT_EQ(merged.events()[3].seq, 21u);
  EXPECT_TRUE(merged.is_time_ordered());
}

TEST(TraceMerge, SkipsNullBuffers) {
  std::vector<std::unique_ptr<MemoryTrace>> runs;
  runs.push_back(nullptr);
  runs.push_back(std::make_unique<MemoryTrace>());
  runs[1]->record(event_at(1.0, 1));
  MemoryTrace merged;
  merge_traces(runs, merged);
  EXPECT_EQ(merged.size(), 1u);
}

TEST(TraceMerge, ReplicatedTraceIsBitIdenticalAcrossJobCounts) {
  ScenarioConfig base = tiny_scenario();

  HashTrace serial_hash;
  base.trace = &serial_hash;
  base.jobs = 1;
  (void)run_replicated(base, 4);

  HashTrace parallel_hash;
  base.trace = &parallel_hash;
  base.jobs = 4;
  (void)run_replicated(base, 4);

  EXPECT_NE(serial_hash.digest(), 0u);
  EXPECT_EQ(serial_hash.digest(), parallel_hash.digest());
}

TEST(TraceMerge, SweepTraceIsBitIdenticalAcrossJobCounts) {
  const MacKind protocols[] = {MacKind::kEwMac, MacKind::kSFama};
  const double xs[] = {0.2, 0.5};
  const ConfigSetter setter = [](ScenarioConfig& c, double x) {
    c.traffic.offered_load_kbps = x;
  };

  ScenarioConfig base = tiny_scenario();
  HashTrace serial_hash;
  base.trace = &serial_hash;
  base.jobs = 1;
  const SweepResult serial = run_sweep(base, protocols, xs, setter, 2);

  HashTrace parallel_hash;
  base.trace = &parallel_hash;
  base.jobs = 4;
  const SweepResult parallel = run_sweep(base, protocols, xs, setter, 2);

  // The sweep itself must really have fanned out (the old behavior
  // forced jobs to 1 whenever a trace sink was attached).
  EXPECT_EQ(serial.jobs_used, 1u);
  EXPECT_EQ(parallel.jobs_used, 4u);
  EXPECT_NE(serial_hash.digest(), 0u);
  EXPECT_EQ(serial_hash.digest(), parallel_hash.digest());
}

TEST(TraceMerge, MergedParallelStreamIsTimeOrderedAndCarriesMacEvents) {
  ScenarioConfig base = tiny_scenario();
  MemoryTrace merged;
  base.trace = &merged;
  base.jobs = 3;
  (void)run_replicated(base, 3);

  ASSERT_GT(merged.size(), 0u);
  EXPECT_TRUE(merged.is_time_ordered());
  EXPECT_GT(merged.count(TraceEventKind::kTxStart), 0u);
  EXPECT_GT(merged.count(TraceEventKind::kMacState), 0u);
  EXPECT_GT(merged.count(TraceEventKind::kNeighborUpdate), 0u);
}

}  // namespace
}  // namespace aquamac
