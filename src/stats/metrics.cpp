#include "stats/metrics.hpp"

#include "util/json_writer.hpp"

namespace aquamac {

double jain_fairness(const std::vector<double>& values) {
  // All-equal inputs (including all-zero, and vacuously the empty set)
  // score 1.0: an idle scenario is perfectly fair, not maximally unfair.
  if (values.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(values.size()) * sum_sq);
}

RunStats compute_run_stats(const MacCounters& total, double total_energy_j,
                           std::size_t node_count, Duration elapsed,
                           Duration traffic_duration, Time traffic_start) {
  RunStats stats{};
  stats.elapsed_s = elapsed.to_seconds();
  stats.traffic_duration_s = traffic_duration.to_seconds();
  stats.node_count = node_count;

  stats.packets_offered = total.packets_offered;
  stats.packets_delivered = total.packets_delivered;
  stats.packets_dropped = total.packets_dropped;
  stats.duplicate_deliveries = total.duplicate_deliveries;
  stats.bits_offered = total.bits_offered;
  stats.bits_delivered = total.bits_delivered;

  if (stats.traffic_duration_s > 0.0) {
    stats.throughput_kbps =
        static_cast<double>(total.bits_delivered) / stats.traffic_duration_s / 1'000.0;
    stats.offered_load_kbps =
        static_cast<double>(total.bits_offered) / stats.traffic_duration_s / 1'000.0;
  }
  if (total.bits_offered > 0) {
    stats.delivery_ratio =
        static_cast<double>(total.bits_delivered) / static_cast<double>(total.bits_offered);
  }

  stats.total_energy_j = total_energy_j;
  if (node_count > 0 && stats.elapsed_s > 0.0) {
    stats.mean_power_mw =
        total_energy_j / stats.elapsed_s / static_cast<double>(node_count) * 1'000.0;
  }

  stats.control_bits = total.control_bits_sent();
  stats.maintenance_bits = total.maintenance_bits_sent();
  stats.retransmitted_bits = total.retransmitted_bits;
  stats.piggyback_bits = total.piggyback_info_bits;
  stats.total_bits_sent = total.total_bits_sent();
  stats.overhead_bits = static_cast<double>(stats.control_bits + stats.maintenance_bits +
                                            stats.retransmitted_bits + stats.piggyback_bits);

  if (total.latency_samples > 0) {
    stats.mean_latency_s = total.total_delivery_latency.to_seconds() /
                           static_cast<double>(total.latency_samples);
  }
  if (total.last_delivery_time > traffic_start) {
    stats.execution_time_s = (total.last_delivery_time - traffic_start).to_seconds();
  }

  stats.handshake_attempts = total.handshake_attempts;
  stats.handshake_successes = total.handshake_successes;
  stats.contention_losses = total.contention_losses;
  stats.extra_attempts = total.extra_attempts;
  stats.extra_successes = total.extra_successes;
  stats.rx_collisions = total.rx_collisions;
  if (stats.mean_power_mw > 0.0) {
    stats.efficiency_raw = stats.throughput_kbps / stats.mean_power_mw;
  }
  return stats;
}

void write_run_stats_json(JsonWriter& json, const RunStats& stats) {
  json.begin_object();
  const auto emit = [&json](const char* name, const auto& field) { json.key(name).value(field); };
  RunStats::for_each_field(emit, stats);
  json.end_object();
}

}  // namespace aquamac
