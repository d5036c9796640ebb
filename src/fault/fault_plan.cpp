#include "fault/fault_plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/checkpoint.hpp"

namespace aquamac {

namespace {

// Dedicated stream ids, spaced 2^16 apart so plans with up to 65k nodes
// cannot collide with each other or with any Network stream (all of which
// sit below 0x1000000).
constexpr std::uint64_t kDriftStream = 0xFA000000;
constexpr std::uint64_t kJitterStream = 0xFA010000;
constexpr std::uint64_t kOutageStream = 0xFA020000;
constexpr std::uint64_t kDutyStream = 0xFA030000;
constexpr std::uint64_t kGeStream = 0xFA040000;
constexpr std::uint64_t kLossStream = 0xFA050000;
constexpr std::uint64_t kStormStream = 0xFA060000;

/// Poisson on/off process: events at rate `rate_per_hour`, each lasting
/// exponential(`mean_duration`); clipped to [0, horizon).
std::vector<TimeInterval> draw_on_off(double rate_per_hour, Duration mean_duration,
                                      Time horizon, Rng& rng) {
  std::vector<TimeInterval> intervals;
  if (rate_per_hour <= 0.0) return intervals;
  const double mean_gap_s = 3'600.0 / rate_per_hour;
  Time t = Time::zero();
  while (true) {
    t += Duration::from_seconds(rng.exponential(mean_gap_s));
    if (t >= horizon) break;
    const Duration dur = Duration::from_seconds(rng.exponential(mean_duration.to_seconds()));
    Time end = t + dur;
    if (end > horizon) end = horizon;
    if (end > t) intervals.push_back(TimeInterval{t, end});
    t = end;
  }
  return intervals;
}

/// Sorts and merges touching/overlapping intervals into a disjoint set.
std::vector<TimeInterval> normalize(std::vector<TimeInterval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const TimeInterval& a, const TimeInterval& b) { return a.begin < b.begin; });
  std::vector<TimeInterval> merged;
  for (const TimeInterval& iv : intervals) {
    if (iv.end <= iv.begin) continue;
    if (!merged.empty() && iv.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, iv.end);
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

}  // namespace

bool interval_set_contains(const std::vector<TimeInterval>& intervals, Time t) {
  const auto it = std::upper_bound(
      intervals.begin(), intervals.end(), t,
      [](Time value, const TimeInterval& iv) { return value < iv.begin; });
  return it != intervals.begin() && std::prev(it)->contains(t);
}

FaultPlan::FaultPlan(const FaultConfig& config, std::size_t node_count, Time horizon,
                     const Rng& root)
    : config_{config}, node_count_{node_count}, horizon_{horizon} {
  if (node_count == 0) throw std::invalid_argument("FaultPlan: node_count must be > 0");

  drift_ppm_.assign(node_count, 0.0);
  jitter_steps_.resize(node_count);
  down_.resize(node_count);
  ge_bad_.resize(node_count);
  loss_rng_.reserve(node_count);

  const Duration span = horizon - Time::zero();
  const std::size_t jitter_count =
      config_.drift_jitter_stddev_s > 0.0 && config_.drift_jitter_interval > Duration::zero()
          ? static_cast<std::size_t>(
                std::max<std::int64_t>(0, span.divide_floor(config_.drift_jitter_interval)))
          : 0;
  const std::size_t ge_steps =
      config_.ge_p_bad > 0.0 && config_.ge_step > Duration::zero()
          ? static_cast<std::size_t>(
                std::max<std::int64_t>(0, span.divide_ceil(config_.ge_step)))
          : 0;

  for (std::size_t i = 0; i < node_count; ++i) {
    if (config_.drift_ppm_stddev > 0.0) {
      Rng drift_rng = root.fork(kDriftStream + i);
      drift_ppm_[i] = drift_rng.normal(0.0, config_.drift_ppm_stddev);
    }
    if (jitter_count > 0) {
      Rng jitter_rng = root.fork(kJitterStream + i);
      jitter_steps_[i].reserve(jitter_count);
      for (std::size_t k = 0; k < jitter_count; ++k) {
        jitter_steps_[i].push_back(
            Duration::from_seconds(jitter_rng.normal(0.0, config_.drift_jitter_stddev_s)));
      }
    }

    std::vector<TimeInterval> down;
    if (config_.outage_rate_per_hour > 0.0) {
      Rng outage_rng = root.fork(kOutageStream + i);
      down = draw_on_off(config_.outage_rate_per_hour, config_.outage_mean_duration, horizon,
                         outage_rng);
    }
    if (config_.duty_cycle < 1.0 && config_.duty_cycle >= 0.0 &&
        config_.duty_period > Duration::zero()) {
      Rng duty_rng = root.fork(kDutyStream + i);
      const Duration sleep = Duration::from_seconds(
          (1.0 - config_.duty_cycle) * config_.duty_period.to_seconds());
      const Duration phase =
          Duration::from_seconds(duty_rng.uniform(0.0, config_.duty_period.to_seconds()));
      for (Time t = Time::zero() + phase; t < horizon; t += config_.duty_period) {
        down.push_back(TimeInterval{t, std::min(t + sleep, horizon)});
      }
    }
    down_[i] = normalize(std::move(down));

    if (ge_steps > 0) {
      Rng ge_rng = root.fork(kGeStream + i);
      bool bad = false;
      Time bad_since{};
      std::vector<TimeInterval> bursts;
      for (std::size_t k = 0; k < ge_steps; ++k) {
        const Time step_start = Time::zero() + config_.ge_step * static_cast<std::int64_t>(k);
        const bool flip = ge_rng.bernoulli(bad ? config_.ge_p_good : config_.ge_p_bad);
        if (flip) {
          if (bad) {
            bursts.push_back(TimeInterval{bad_since, step_start});
          } else {
            bad_since = step_start;
          }
          bad = !bad;
        }
      }
      if (bad) bursts.push_back(TimeInterval{bad_since, horizon});
      ge_bad_[i] = normalize(std::move(bursts));
    }

    loss_rng_.push_back(root.fork(kLossStream + i));
  }

  if (config_.storm_rate_per_hour > 0.0) {
    Rng storm_rng = root.fork(kStormStream);
    storms_ = normalize(draw_on_off(config_.storm_rate_per_hour, config_.storm_mean_duration,
                                    horizon, storm_rng));
  }
}

double FaultPlan::drift_ppm(NodeId node) const { return drift_ppm_.at(node); }

const std::vector<Duration>& FaultPlan::jitter_steps(NodeId node) const {
  return jitter_steps_.at(node);
}

const std::vector<TimeInterval>& FaultPlan::down_intervals(NodeId node) const {
  return down_.at(node);
}

const std::vector<TimeInterval>& FaultPlan::ge_bad_intervals(NodeId node) const {
  return ge_bad_.at(node);
}

bool FaultPlan::arrival_lost(NodeId receiver, Time at) {
  Rng& rng = loss_rng_.at(receiver);
  bool lost = false;
  // Always one draw per enabled process, whatever the current state: the
  // stream position stays a pure function of this receiver's arrival
  // count, never of which states the chain happened to visit.
  if (config_.ge_p_bad > 0.0 && config_.ge_step > Duration::zero()) {
    const bool bad = interval_set_contains(ge_bad_[receiver], at);
    const double p = bad ? config_.ge_loss_bad : config_.ge_loss_good;
    if (rng.bernoulli(p)) lost = true;
  }
  if (config_.storm_rate_per_hour > 0.0) {
    const bool in_storm = interval_set_contains(storms_, at);
    const double p = in_storm ? config_.storm_loss_prob : 0.0;
    if (rng.bernoulli(p)) lost = true;
  }
  return lost;
}

std::pair<Duration, Duration> FaultPlan::clock_error_range(NodeId node) const {
  // error(t) = drift_ppm * 1e-6 * t + sum(jitter steps applied by t):
  // piecewise linear, so the extremes sit at segment endpoints. Evaluate
  // with the exact formula/quantization the modem uses.
  const double rate = drift_ppm_.at(node) * 1e-6;
  const auto drift_at = [rate](Time t) {
    return Duration::from_seconds(rate * t.to_seconds());
  };
  const std::vector<Duration>& steps = jitter_steps_.at(node);
  const Duration interval = config_.drift_jitter_interval;

  Duration lo = Duration::zero();
  Duration hi = Duration::zero();
  Duration accumulated = Duration::zero();
  Time segment_begin = Time::zero();
  const auto visit = [&](Time t) {
    const Duration err = accumulated + drift_at(t);
    lo = std::min(lo, err);
    hi = std::max(hi, err);
  };
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const Time segment_end = Time::zero() + interval * static_cast<std::int64_t>(k + 1);
    visit(segment_begin);
    visit(std::min(segment_end, horizon_));
    // A step landing exactly on the horizon still counts: an event at
    // t == horizon can fire before the run ends, so keep the bound
    // conservative and apply it.
    if (segment_end > horizon_) return {lo, hi};
    accumulated += steps[k];
    segment_begin = segment_end;
  }
  visit(segment_begin);
  visit(horizon_);
  return {lo, hi};
}

void FaultPlan::visit_state(StateArchive& ar) {
  ar.expect(loss_rng_.size(), "fault-plan loss-stream count mismatch on restore");
  for (Rng& rng : loss_rng_) ar(rng);
}

}  // namespace aquamac
