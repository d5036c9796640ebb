#include "net/traffic.hpp"

#include "sim/checkpoint.hpp"

namespace aquamac {

double per_node_packet_rate(const TrafficConfig& config, std::size_t sources) {
  if (sources == 0) return 0.0;
  const double mean_bits =
      0.5 * (static_cast<double>(config.packet_bits_min) +
             static_cast<double>(config.packet_bits_max));
  const double network_bps = config.offered_load_kbps * 1'000.0;
  return network_bps / mean_bits / static_cast<double>(sources);
}

TrafficSource::TrafficSource(Simulator& sim, TrafficConfig config, double node_rate_pps,
                             Rng rng, EmitFn emit)
    : sim_{sim},
      config_{config},
      rate_pps_{node_rate_pps},
      rng_{rng},
      emit_{std::move(emit)} {}

std::uint32_t TrafficSource::draw_size() {
  if (config_.packet_bits_min >= config_.packet_bits_max) return config_.packet_bits_min;
  return static_cast<std::uint32_t>(
      rng_.uniform_int(config_.packet_bits_min, config_.packet_bits_max));
}

void TrafficSource::start(Time start, std::uint32_t batch_count) {
  switch (config_.mode) {
    case TrafficMode::kPoisson: {
      if (rate_pps_ <= 0.0) return;
      sim_.at(start, [this] { schedule_next(); });
      break;
    }
    case TrafficMode::kBatch: {
      for (std::uint32_t i = 0; i < batch_count; ++i) {
        // Small stagger so a node's batch does not hit one slot en masse.
        const Duration stagger = Duration::from_seconds(rng_.uniform01() * 1.0);
        sim_.at(start + stagger, [this] {
          ++generated_;
          emit_(draw_size());
        });
      }
      break;
    }
  }
}

void TrafficSource::schedule_next() {
  const Duration gap = Duration::from_seconds(rng_.exponential(1.0 / rate_pps_));
  sim_.in(gap, [this] {
    ++generated_;
    emit_(draw_size());
    schedule_next();
  });
}

void TrafficSource::visit_state(StateArchive& ar) { ar(rng_, generated_); }

}  // namespace aquamac
