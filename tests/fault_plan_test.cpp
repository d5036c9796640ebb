#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "stats/trace.hpp"

namespace aquamac {
namespace {

[[nodiscard]] Duration total_covered(const std::vector<TimeInterval>& intervals) {
  Duration sum = Duration::zero();
  for (const TimeInterval& iv : intervals) sum += iv.end - iv.begin;
  return sum;
}

TEST(FaultPlan, DefaultConfigIsDisabled) {
  // The strict no-op guarantee hinges on this: a default-constructed
  // FaultConfig must never cause a FaultPlan to be built.
  const FaultConfig config{};
  EXPECT_FALSE(config.drift_enabled());
  EXPECT_FALSE(config.outages_enabled());
  EXPECT_FALSE(config.channel_enabled());
  EXPECT_FALSE(config.enabled());
  EXPECT_FALSE(ScenarioConfig{}.fault.enabled());
}

TEST(FaultPlan, EnabledPredicatesTrackTheirKnobs) {
  FaultConfig config{};
  config.drift_ppm_stddev = 100.0;
  EXPECT_TRUE(config.drift_enabled());
  EXPECT_FALSE(config.outages_enabled());

  config = FaultConfig{};
  config.duty_cycle = 0.5;
  EXPECT_TRUE(config.outages_enabled());
  EXPECT_FALSE(config.channel_enabled());

  config = FaultConfig{};
  config.ge_p_bad = 0.1;
  EXPECT_TRUE(config.channel_enabled());

  config = FaultConfig{};
  config.storm_rate_per_hour = 1.0;
  EXPECT_TRUE(config.channel_enabled());
}

TEST(FaultPlan, DeterministicRealization) {
  FaultConfig config{};
  config.drift_ppm_stddev = 500.0;
  config.drift_jitter_stddev_s = 0.001;
  config.outage_rate_per_hour = 30.0;
  config.ge_p_bad = 0.05;
  config.storm_rate_per_hour = 4.0;
  const Time horizon = Time::from_seconds(600.0);

  const FaultPlan a{config, 8, horizon, Rng{42}};
  const FaultPlan b{config, 8, horizon, Rng{42}};
  for (NodeId i = 0; i < 8; ++i) {
    EXPECT_EQ(a.drift_ppm(i), b.drift_ppm(i));
    EXPECT_EQ(a.jitter_steps(i), b.jitter_steps(i));
    ASSERT_EQ(a.down_intervals(i).size(), b.down_intervals(i).size());
    for (std::size_t k = 0; k < a.down_intervals(i).size(); ++k) {
      EXPECT_EQ(a.down_intervals(i)[k].begin, b.down_intervals(i)[k].begin);
      EXPECT_EQ(a.down_intervals(i)[k].end, b.down_intervals(i)[k].end);
    }
    EXPECT_EQ(a.ge_bad_intervals(i).size(), b.ge_bad_intervals(i).size());
  }
  ASSERT_EQ(a.storms().size(), b.storms().size());

  // A different seed realizes a different timeline (drift alone suffices).
  const FaultPlan c{config, 8, horizon, Rng{43}};
  bool any_differs = false;
  for (NodeId i = 0; i < 8; ++i) any_differs = any_differs || a.drift_ppm(i) != c.drift_ppm(i);
  EXPECT_TRUE(any_differs);
}

TEST(FaultPlan, RealizationDoesNotPerturbTheRootStream) {
  // fork() is const: building a plan must not advance the run's root RNG.
  FaultConfig config{};
  config.drift_ppm_stddev = 500.0;
  config.outage_rate_per_hour = 60.0;
  config.ge_p_bad = 0.1;
  config.storm_rate_per_hour = 4.0;

  Rng probe_a{7};
  Rng probe_b{7};
  const FaultPlan plan{config, 4, Time::from_seconds(300.0), probe_a};
  (void)plan;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(probe_a(), probe_b());
  }
}

TEST(FaultPlan, IntervalSetContains) {
  const std::vector<TimeInterval> set{
      TimeInterval{Time::from_seconds(1.0), Time::from_seconds(2.0)},
      TimeInterval{Time::from_seconds(5.0), Time::from_seconds(6.0)},
  };
  EXPECT_FALSE(interval_set_contains(set, Time::from_seconds(0.5)));
  EXPECT_TRUE(interval_set_contains(set, Time::from_seconds(1.0)));
  EXPECT_TRUE(interval_set_contains(set, Time::from_seconds(1.999)));
  EXPECT_FALSE(interval_set_contains(set, Time::from_seconds(2.0))) << "closed-open";
  EXPECT_FALSE(interval_set_contains(set, Time::from_seconds(3.0)));
  EXPECT_TRUE(interval_set_contains(set, Time::from_seconds(5.5)));
  EXPECT_FALSE(interval_set_contains(set, Time::from_seconds(7.0)));
  EXPECT_FALSE(interval_set_contains({}, Time::zero()));
}

TEST(FaultPlan, DownIntervalsAreSortedDisjointAndClipped) {
  FaultConfig config{};
  config.outage_rate_per_hour = 240.0;  // dense, to force merges
  config.outage_mean_duration = Duration::seconds(30);
  config.duty_cycle = 0.8;
  config.duty_period = Duration::seconds(50);
  const Time horizon = Time::from_seconds(1'000.0);
  const FaultPlan plan{config, 6, horizon, Rng{11}};

  for (NodeId i = 0; i < 6; ++i) {
    const auto& down = plan.down_intervals(i);
    ASSERT_FALSE(down.empty()) << "duty cycling alone guarantees sleep windows";
    for (std::size_t k = 0; k < down.size(); ++k) {
      EXPECT_TRUE(down[k].begin < down[k].end);
      EXPECT_TRUE(down[k].end <= horizon);
      if (k > 0) {
        EXPECT_TRUE(down[k - 1].end < down[k].begin) << "sorted and disjoint";
      }
    }
  }
}

TEST(FaultPlan, DutyCycleSleepFractionMatches) {
  FaultConfig config{};
  config.duty_cycle = 0.75;
  config.duty_period = Duration::seconds(40);
  const Time horizon = Time::from_seconds(4'000.0);
  const FaultPlan plan{config, 3, horizon, Rng{5}};
  for (NodeId i = 0; i < 3; ++i) {
    const double asleep = total_covered(plan.down_intervals(i)).to_seconds() /
                          (horizon - Time::zero()).to_seconds();
    EXPECT_NEAR(asleep, 0.25, 0.02) << "node " << i;
  }
}

TEST(FaultPlan, GilbertElliottStationaryDistribution) {
  // pi_bad = p_bad / (p_bad + p_good) = 0.075 / 0.375 = 0.2. With a
  // 100 ms step over 4000 s the chain takes 40k transitions per node, so
  // the occupied-time fraction concentrates tightly around pi_bad.
  FaultConfig config{};
  config.ge_p_bad = 0.075;
  config.ge_p_good = 0.3;
  config.ge_loss_bad = 1.0;
  const Time horizon = Time::from_seconds(4'000.0);
  const FaultPlan plan{config, 4, horizon, Rng{17}};

  const double span_s = (horizon - Time::zero()).to_seconds();
  double mean_bad = 0.0;
  for (NodeId i = 0; i < 4; ++i) {
    const double bad = total_covered(plan.ge_bad_intervals(i)).to_seconds() / span_s;
    EXPECT_NEAR(bad, 0.2, 0.05) << "node " << i;
    mean_bad += bad / 4.0;
  }
  EXPECT_NEAR(mean_bad, 0.2, 0.025);
}

TEST(FaultPlan, ArrivalLostIsCertainInBadStateWithUnitLoss) {
  // With loss_bad = 1 and loss_good = 0 the Bernoulli draws are
  // degenerate, so arrival_lost must equal bad-interval membership.
  FaultConfig config{};
  config.ge_p_bad = 0.1;
  config.ge_p_good = 0.2;
  config.ge_loss_bad = 1.0;
  config.ge_loss_good = 0.0;
  const Time horizon = Time::from_seconds(200.0);
  FaultPlan plan{config, 2, horizon, Rng{23}};

  for (NodeId node = 0; node < 2; ++node) {
    ASSERT_FALSE(plan.ge_bad_intervals(node).empty());
    for (int k = 0; k < 400; ++k) {
      const Time at = Time::from_seconds(0.5 * k);
      EXPECT_EQ(plan.arrival_lost(node, at),
                interval_set_contains(plan.ge_bad_intervals(node), at));
    }
  }
}

TEST(FaultPlan, StormLossAppliesToEveryReceiver) {
  FaultConfig config{};
  config.storm_rate_per_hour = 60.0;
  config.storm_mean_duration = Duration::seconds(10);
  config.storm_loss_prob = 1.0;
  const Time horizon = Time::from_seconds(1'000.0);
  FaultPlan plan{config, 3, horizon, Rng{31}};

  ASSERT_FALSE(plan.storms().empty());
  const TimeInterval storm = plan.storms().front();
  const Time inside =
      storm.begin + Duration::nanoseconds((storm.end - storm.begin).count_ns() / 2);
  for (NodeId node = 0; node < 3; ++node) {
    EXPECT_TRUE(plan.arrival_lost(node, inside));
  }
  // Clearly outside every storm: just before the first one.
  if (storm.begin > Time::zero()) {
    for (NodeId node = 0; node < 3; ++node) {
      EXPECT_FALSE(plan.arrival_lost(node, storm.begin - Duration::nanoseconds(1)));
    }
  }
}

TEST(FaultPlan, ClockErrorRangeBoundsRealizedError) {
  FaultConfig config{};
  config.drift_ppm_stddev = 2'000.0;
  config.drift_jitter_stddev_s = 0.002;
  config.drift_jitter_interval = Duration::seconds(10);
  const Time horizon = Time::from_seconds(120.0);
  const FaultPlan plan{config, 5, horizon, Rng{3}};

  for (NodeId node = 0; node < 5; ++node) {
    const auto [lo, hi] = plan.clock_error_range(node);
    EXPECT_TRUE(lo <= hi);
    // Reconstruct the error trajectory exactly as the modem realizes it:
    // drift is linear in time, each jitter step k lands at (k+1)*interval.
    const auto& steps = plan.jitter_steps(node);
    Duration jitter = Duration::zero();
    for (int s = 0; s <= 120; ++s) {
      const Time t = Time::from_seconds(static_cast<double>(s));
      std::size_t applied = 0;
      jitter = Duration::zero();
      for (const Duration step : steps) {
        const Time step_at = Time::zero() + config.drift_jitter_interval * static_cast<std::int64_t>(applied + 1);
        if (step_at > t) break;
        jitter += step;
        applied += 1;
      }
      const Duration error =
          jitter + Duration::from_seconds(plan.drift_ppm(node) * 1e-6 * t.to_seconds());
      EXPECT_TRUE(lo <= error && error <= hi)
          << "node " << node << " at t=" << s << "s: error " << error.to_string()
          << " outside [" << lo.to_string() << ", " << hi.to_string() << "]";
    }
  }
}

TEST(FaultPlan, RealizedClockUncertaintyCoversStaticOffsetAndDrift) {
  ScenarioConfig config = small_test_scenario();
  EXPECT_TRUE(realized_clock_uncertainty(config).is_zero()) << "perfect sync";

  config.clock_offset_stddev_s = 0.01;
  const Duration offset_only = realized_clock_uncertainty(config);
  EXPECT_TRUE(offset_only > Duration::zero());

  config.fault.drift_ppm_stddev = 5'000.0;
  const Duration with_drift = realized_clock_uncertainty(config);
  EXPECT_TRUE(with_drift > offset_only) << "drift can only widen the spread";
}

TEST(FaultPlanParallel, ReplicatedStatsIdenticalAcrossJobCounts) {
  // The FaultPlan realizes per-run from (config, seed) and owns no shared
  // state, so fault-injected replications must stay bit-identical between
  // the serial and threaded harness paths (CI replays this under TSan).
  ScenarioConfig base = small_test_scenario();
  base.sim_time = Duration::seconds(30);
  base.fault.drift_ppm_stddev = 1'000.0;
  base.fault.outage_rate_per_hour = 60.0;
  base.fault.outage_mean_duration = Duration::seconds(5);
  base.fault.ge_p_bad = 0.05;

  base.jobs = 1;

  const std::vector<RunStats> serial = run_replicated(base, 4);
  base.jobs = 4;
  const std::vector<RunStats> threaded = run_replicated(base, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_EQ(serial[k].packets_offered, threaded[k].packets_offered);
    EXPECT_EQ(serial[k].packets_delivered, threaded[k].packets_delivered);
    EXPECT_EQ(serial[k].bits_delivered, threaded[k].bits_delivered);
    EXPECT_DOUBLE_EQ(serial[k].total_energy_j, threaded[k].total_energy_j);
  }
}

TEST(FaultPlanParallel, FaultRunsDigestDeterministically) {
  ScenarioConfig config = small_test_scenario();
  config.sim_time = Duration::seconds(30);
  config.fault.drift_ppm_stddev = 1'000.0;
  config.fault.outage_rate_per_hour = 120.0;
  config.fault.outage_mean_duration = Duration::seconds(5);

  HashTrace a;
  HashTrace b;
  config.trace = &a;
  (void)run_scenario(config);
  config.trace = &b;
  (void)run_scenario(config);
  EXPECT_EQ(a.digest(), b.digest());
}

}  // namespace
}  // namespace aquamac
