#pragma once
// Deterministic fault-injection plan.
//
// A FaultPlan is a precomputed, seeded schedule of time-varying faults for
// one run: per-node clock drift (a ppm rate plus a random-walk jitter on
// top of the static offset of ScenarioConfig::clock_offset_stddev_s),
// node outage / duty-cycle windows (the modem refuses TX/RX while down;
// the MAC resets and re-learns on rejoin), and channel impairments
// (per-receiver Gilbert-Elliott burst loss and network-wide noise
// storms). Everything is realized at construction from (FaultConfig,
// node_count, horizon, seed) with dedicated RNG stream ids, so:
//   * the same (config, seed) always yields the same fault timeline,
//   * adding faults never perturbs any other subsystem's random stream,
//   * with every knob at zero the plan is never even constructed and runs
//     are bit-identical to a build without this subsystem, and
//   * the harness (auditor tolerance, guard-slack sizing) can replicate
//     the exact realization the Network will see.
//
// The only mutable call is arrival_lost(): it consumes the receiver's
// loss stream once per query in arrival order, which is deterministic
// because each modem finishes its arrivals in simulation-time order.

#include <cstdint>
#include <utility>
#include <vector>

#include "phy/frame.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace aquamac {

struct FaultConfig {
  // --- clock drift (on top of the static offset) ----------------------
  /// Per-node drift rate ~ normal(0, stddev) in parts per million.
  double drift_ppm_stddev{0.0};
  /// Random-walk jitter: every jitter interval each node's offset takes a
  /// normal(0, stddev) step (oscillator phase noise, temperature).
  double drift_jitter_stddev_s{0.0};
  Duration drift_jitter_interval{Duration::seconds(10)};

  // --- node outages / duty cycling ------------------------------------
  /// Per-node Poisson outage arrivals (battery brownout, fouling).
  double outage_rate_per_hour{0.0};
  Duration outage_mean_duration{Duration::seconds(20)};
  /// Fraction of each duty period the node is awake; 1 = always on. The
  /// sleep window's phase is drawn per node so the fleet never sleeps in
  /// lockstep.
  double duty_cycle{1.0};
  Duration duty_period{Duration::seconds(60)};

  // --- channel impairments --------------------------------------------
  /// Gilbert-Elliott burst loss: a two-state Markov chain per receiver,
  /// stepped every ge_step; decodable arrivals are lost with the state's
  /// loss probability. Stationary bad fraction = p_bad / (p_bad + p_good).
  double ge_p_bad{0.0};   ///< P(good -> bad) per step
  double ge_p_good{0.3};  ///< P(bad -> good) per step
  double ge_loss_bad{0.9};
  double ge_loss_good{0.0};
  Duration ge_step{Duration::milliseconds(100)};
  /// Transient noise storms (trawler pass, rain cell): network-wide
  /// Poisson arrivals with exponential durations; every decodable arrival
  /// during a storm is lost with storm_loss_prob.
  double storm_rate_per_hour{0.0};
  Duration storm_mean_duration{Duration::seconds(5)};
  double storm_loss_prob{1.0};

  [[nodiscard]] bool drift_enabled() const {
    return drift_ppm_stddev > 0.0 || drift_jitter_stddev_s > 0.0;
  }
  [[nodiscard]] bool outages_enabled() const {
    return outage_rate_per_hour > 0.0 ||
           (duty_cycle < 1.0 && duty_cycle >= 0.0 && duty_period > Duration::zero());
  }
  [[nodiscard]] bool channel_enabled() const {
    return (ge_p_bad > 0.0 && ge_loss_bad > 0.0) || storm_rate_per_hour > 0.0;
  }
  /// False for a default-constructed config: the strict no-op guarantee.
  [[nodiscard]] bool enabled() const {
    return drift_enabled() || outages_enabled() || channel_enabled();
  }
};

class FaultPlan {
 public:
  /// Realizes the full fault timeline over [0, horizon). `root` is the
  /// run's root RNG (Rng{seed}); fork() is const, so construction never
  /// advances it.
  FaultPlan(const FaultConfig& config, std::size_t node_count, Time horizon, const Rng& root);

  [[nodiscard]] const FaultConfig& config() const { return config_; }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }
  [[nodiscard]] Time horizon() const { return horizon_; }
  [[nodiscard]] bool channel_impairment_enabled() const {
    return config_.channel_enabled();
  }

  /// Drift rate of `node` in ppm (0 when drift is disabled).
  [[nodiscard]] double drift_ppm(NodeId node) const;
  /// Jitter steps of `node`; step k is applied at (k+1) * jitter interval.
  [[nodiscard]] const std::vector<Duration>& jitter_steps(NodeId node) const;
  /// Merged, sorted down-time (outage + duty sleep) windows of `node`.
  [[nodiscard]] const std::vector<TimeInterval>& down_intervals(NodeId node) const;
  /// Sorted bad-state windows of `node`'s Gilbert-Elliott chain.
  [[nodiscard]] const std::vector<TimeInterval>& ge_bad_intervals(NodeId node) const;
  /// Sorted network-wide storm windows.
  [[nodiscard]] const std::vector<TimeInterval>& storms() const { return storms_; }

  /// Whether the channel impairments kill an otherwise-decodable arrival
  /// beginning at `at` for `receiver`. Consumes the receiver's loss
  /// stream once per query (a fixed number of draws regardless of chain
  /// state, so the stream alignment is a pure function of arrival order).
  [[nodiscard]] bool arrival_lost(NodeId receiver, Time at);

  /// Checkpoint encoding. The realized timeline is a pure function of
  /// (config, node_count, horizon, seed) and is rebuilt by the resume
  /// path; only the per-receiver loss streams advance during a run, so
  /// they are the whole of the mutable state.
  void visit_state(StateArchive& ar);

  /// Exact [min, max] of this node's drift + jitter clock-error over
  /// [0, horizon], in the same quantization the modem applies (static
  /// offsets are the caller's to add). The error is piecewise linear in
  /// time, so the extremes sit on jitter-segment endpoints.
  [[nodiscard]] std::pair<Duration, Duration> clock_error_range(NodeId node) const;

 private:
  // Everything below except loss_rng_ is the precomputed plan: the
  // constructor rebuilds it deterministically from (config, node_count,
  // horizon, seed), so checkpoints carry only the live loss streams.
  FaultConfig config_;       // lint: ckpt-skip(precomputed plan, ctor rebuilds)
  std::size_t node_count_;   // lint: ckpt-skip(precomputed plan, ctor rebuilds)
  Time horizon_;             // lint: ckpt-skip(precomputed plan, ctor rebuilds)

  std::vector<double> drift_ppm_;  // lint: ckpt-skip(precomputed plan, ctor rebuilds)
  std::vector<std::vector<Duration>> jitter_steps_;  // lint: ckpt-skip(precomputed plan)
  std::vector<std::vector<TimeInterval>> down_;      // lint: ckpt-skip(precomputed plan)
  std::vector<std::vector<TimeInterval>> ge_bad_;    // lint: ckpt-skip(precomputed plan)
  std::vector<TimeInterval> storms_;                 // lint: ckpt-skip(precomputed plan)
  std::vector<Rng> loss_rng_;
};

/// True when `t` lies inside one of the sorted, disjoint `intervals`.
[[nodiscard]] bool interval_set_contains(const std::vector<TimeInterval>& intervals, Time t);

}  // namespace aquamac
