// The parallel harness contract: parallel_for covers every index exactly
// once and transports exceptions, and run_replicated / run_sweep produce
// bit-identical results for any jobs value. The latter is the invariant
// the whole executor rests on — every run owns its Simulator, Network
// and RNG, so thread scheduling must not be observable in the stats.

#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "mac/mac_factory.hpp"

namespace aquamac {
namespace {

void expect_identical(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.elapsed_s, b.elapsed_s);
  EXPECT_EQ(a.traffic_duration_s, b.traffic_duration_s);
  EXPECT_EQ(a.node_count, b.node_count);
  EXPECT_EQ(a.packets_offered, b.packets_offered);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.bits_offered, b.bits_offered);
  EXPECT_EQ(a.bits_delivered, b.bits_delivered);
  EXPECT_EQ(a.throughput_kbps, b.throughput_kbps);
  EXPECT_EQ(a.offered_load_kbps, b.offered_load_kbps);
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.mean_power_mw, b.mean_power_mw);
  EXPECT_EQ(a.control_bits, b.control_bits);
  EXPECT_EQ(a.maintenance_bits, b.maintenance_bits);
  EXPECT_EQ(a.retransmitted_bits, b.retransmitted_bits);
  EXPECT_EQ(a.piggyback_bits, b.piggyback_bits);
  EXPECT_EQ(a.total_bits_sent, b.total_bits_sent);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.execution_time_s, b.execution_time_s);
  EXPECT_EQ(a.handshake_attempts, b.handshake_attempts);
  EXPECT_EQ(a.handshake_successes, b.handshake_successes);
  EXPECT_EQ(a.contention_losses, b.contention_losses);
  EXPECT_EQ(a.extra_attempts, b.extra_attempts);
  EXPECT_EQ(a.extra_successes, b.extra_successes);
  EXPECT_EQ(a.rx_collisions, b.rx_collisions);
  EXPECT_EQ(a.fairness_index, b.fairness_index);
  EXPECT_EQ(a.e2e_originated, b.e2e_originated);
  EXPECT_EQ(a.e2e_arrived_at_sink, b.e2e_arrived_at_sink);
  EXPECT_EQ(a.e2e_delivery_ratio, b.e2e_delivery_ratio);
  EXPECT_EQ(a.mean_hops, b.mean_hops);
  EXPECT_EQ(a.mean_e2e_latency_s, b.mean_e2e_latency_s);
}

/// small_test_scenario shrunk further so the determinism sweeps finish in
/// well under a second even under TSan.
ScenarioConfig tiny_scenario() {
  ScenarioConfig config = small_test_scenario();
  config.node_count = 8;
  config.sim_time = Duration::seconds(20);
  return config;
}

TEST(ThreadPool, RunsSubmittedTasks) {
  std::atomic<int> count{0};
  ThreadPool pool{4};
  EXPECT_EQ(pool.thread_count(), 4u);
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReentrant) {
  ThreadPool pool{2};
  pool.wait_idle();  // nothing submitted
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 1'000;
  std::vector<std::atomic<int>> visits(kCount);
  parallel_for(4, kCount, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, SerialPathCoversEveryIndexInOrder) {
  std::vector<std::size_t> order;
  parallel_for(1, 10, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ZeroCountIsANoOp) {
  parallel_for(4, 0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(parallel_for(4, 100,
                            [](std::size_t i) {
                              if (i == 37) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // Serial path too.
  EXPECT_THROW(parallel_for(1, 10,
                            [](std::size_t i) {
                              if (i == 3) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, KeepsRunningAfterAnException) {
  std::atomic<int> visited{0};
  try {
    parallel_for(4, 50, [&](std::size_t) {
      visited.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("every task throws");
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(visited.load(), 50);  // no index abandoned
}

TEST(ResolveJobs, ZeroMeansAutoAndNonZeroPassesThrough) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(7), 7u);
}

TEST(ParallelHarness, ReplicatedRunsAreBitIdenticalAcrossJobCounts) {
  ScenarioConfig base = tiny_scenario();
  base.jobs = 1;
  const std::vector<RunStats> serial = run_replicated(base, 5);
  base.jobs = 4;
  const std::vector<RunStats> parallel = run_replicated(base, 5);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    SCOPED_TRACE("replication " + std::to_string(k));
    expect_identical(serial[k], parallel[k]);
  }
}

TEST(ParallelHarness, SweepIsBitIdenticalAcrossJobCounts) {
  // Mixed EW-MAC / S-FAMA sweep: the two protocols exercise different
  // MAC machinery (and different RNG consumption) per run.
  const MacKind protocols[] = {MacKind::kEwMac, MacKind::kSFama};
  const double xs[] = {0.2, 0.5};
  constexpr unsigned kReps = 3;

  ScenarioConfig base = tiny_scenario();
  base.jobs = 1;
  const SweepResult serial = run_sweep(base, protocols, xs, [](ScenarioConfig& c, double x) {
    c.traffic.offered_load_kbps = x;
  }, kReps);
  base.jobs = 4;
  const SweepResult parallel = run_sweep(base, protocols, xs, [](ScenarioConfig& c, double x) {
    c.traffic.offered_load_kbps = x;
  }, kReps);

  EXPECT_EQ(serial.jobs_used, 1u);
  EXPECT_EQ(parallel.jobs_used, 4u);
  ASSERT_EQ(serial.protocols, parallel.protocols);
  ASSERT_EQ(serial.xs, parallel.xs);
  for (MacKind kind : serial.protocols) {
    for (std::size_t i = 0; i < serial.xs.size(); ++i) {
      const auto& a = serial.runs_at(kind, i);
      const auto& b = parallel.runs_at(kind, i);
      ASSERT_EQ(a.size(), kReps);
      ASSERT_EQ(b.size(), kReps);
      for (std::size_t k = 0; k < kReps; ++k) {
        SCOPED_TRACE("protocol " + std::string{to_string(kind)} + " x=" +
                     std::to_string(serial.xs[i]) + " rep=" + std::to_string(k));
        expect_identical(a[k], b[k]);
      }
    }
  }
}

TEST(ParallelHarness, SweepRecordsWallClockAccounting) {
  const MacKind protocols[] = {MacKind::kEwMac};
  const double xs[] = {0.3};
  ScenarioConfig base = tiny_scenario();
  base.jobs = 1;
  const SweepResult sweep = run_sweep(base, protocols, xs, [](ScenarioConfig& c, double x) {
    c.traffic.offered_load_kbps = x;
  }, 2);
  EXPECT_EQ(sweep.replications, 2u);
  EXPECT_EQ(sweep.total_runs(), 2u);
  EXPECT_GT(sweep.wall_s, 0.0);
  ASSERT_EQ(sweep.cell_wall_s.at(MacKind::kEwMac).size(), 1u);
  EXPECT_GT(sweep.cell_wall_s.at(MacKind::kEwMac)[0], 0.0);
  // Per-cell compute time cannot exceed end-to-end wall time when serial.
  EXPECT_LE(sweep.cell_wall_s.at(MacKind::kEwMac)[0], sweep.wall_s);
}

TEST(ParallelHarness, NormalizedTableRequiresSFamaBaseline) {
  const MacKind protocols[] = {MacKind::kEwMac};  // no S-FAMA
  const double xs[] = {0.3};
  ScenarioConfig base = tiny_scenario();
  const SweepResult sweep = run_sweep(base, protocols, xs, [](ScenarioConfig& c, double x) {
    c.traffic.offered_load_kbps = x;
  }, 1);
  EXPECT_THROW(sweep_table_normalized(
                   sweep, "x", [](const MeanStats& m) { return m.throughput_kbps; }),
               std::invalid_argument);
}

}  // namespace
}  // namespace aquamac
