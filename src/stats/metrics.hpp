#pragma once
// Run-level metrics derived from aggregated counters (Eqs. 2-4).

#include <cstdint>
#include <vector>

#include "stats/counters.hpp"
#include "util/time.hpp"

namespace aquamac {

class JsonWriter;

/// The per-run metric block (Eqs. 2-4 plus the multi-hop and reliability
/// breakdowns), with counts stored as `Count`: RunStats holds one run's
/// exact counts, MeanStats the seed-mean of each field as a double.
template <class Count>
struct RunStatsOf {
  double elapsed_s{0.0};           ///< total simulated time
  double traffic_duration_s{0.0};  ///< window over which load was offered
  Count node_count{0};

  Count packets_offered{0};
  Count packets_delivered{0};
  Count packets_dropped{0};
  /// Retransmissions the receiver had already delivered (lost Acks);
  /// a high count flags an Ack path too lossy for the retry budget.
  Count duplicate_deliveries{0};
  Count bits_offered{0};
  Count bits_delivered{0};

  /// Eq. (3): delivered bits per traffic second, in kbps.
  double throughput_kbps{0.0};
  double offered_load_kbps{0.0};
  /// Delivered / offered bits.
  double delivery_ratio{0.0};

  /// Total network energy in joules and mean per-node power in mW.
  double total_energy_j{0.0};
  double mean_power_mw{0.0};

  /// Overhead inputs (Fig. 10): control (RTS/CTS/Ack + extra control),
  /// maintenance (Hello/Maint), retransmission bits.
  Count control_bits{0};
  Count maintenance_bits{0};
  Count retransmitted_bits{0};
  Count piggyback_bits{0};
  Count total_bits_sent{0};
  /// control + maintenance + retransmitted + piggyback bits of the run.
  double overhead_bits{0.0};

  double mean_latency_s{0.0};
  /// Fig. 8: time from traffic start to the last successful delivery.
  double execution_time_s{0.0};

  Count handshake_attempts{0};
  Count handshake_successes{0};
  Count contention_losses{0};
  Count extra_attempts{0};
  Count extra_successes{0};
  Count rx_collisions{0};

  /// Eq. (4) per run: throughput / mean power (0 without power); the
  /// figure normalizes to S-FAMA. A per-run ratio, so a mean of it is
  /// the mean of the ratios, not a ratio of means.
  double efficiency_raw{0.0};

  /// Jain's fairness index over per-source acked packets in [1/n, 1];
  /// the §3.1 rp priority exists to keep this high under contention.
  double fairness_index{0.0};

  // --- multi-hop mode (§3.1/Fig. 1); zero when disabled ----------------
  Count e2e_originated{0};
  Count e2e_arrived_at_sink{0};
  double e2e_delivery_ratio{0.0};
  double mean_hops{0.0};
  double mean_e2e_latency_s{0.0};
  // Routing-layer breakdown (docs/routing.md):
  Count e2e_forwarded{0};
  Count e2e_dropped_no_route{0};  ///< routing named no next hop
  Count e2e_dropped_hop_limit{0};
  Count e2e_dropped_mac{0};       ///< a hop exhausted MAC retries
  /// Realized hops / static-tree hops, over arrivals whose origin the
  /// tree can route (1.0 = shortest-delay paths; greedy/DV detours > 1).
  double hop_stretch{0.0};
  /// mean_e2e_latency_s / mean_hops: queueing+contention cost per hop.
  double mean_per_hop_latency_s{0.0};
  // Hop-by-hop reliability layer (docs/reliability.md); zero with the
  // ARQ off:
  Count e2e_retransmissions{0};  ///< custody re-enqueues after backoff
  Count e2e_failovers{0};        ///< retries sent via an alternate hop
  Count e2e_dead_letter_exhausted{0};  ///< custody retry budget spent
  Count e2e_dead_letter_overflow{0};   ///< relay queue overflow drops
  Count e2e_dead_letter_no_route{0};   ///< no hop left at retry time
  Count e2e_duplicates_suppressed{0};  ///< relay-level dedup hits
  Count relay_queue_highwater{0};      ///< worst custody occupancy

  /// Fig. 9 metric: energy to move the workload, expressed as mean
  /// per-node power over the Table-2 300 s reference window.
  [[nodiscard]] double workload_power_mw() const {
    const auto nodes = static_cast<double>(node_count);
    return nodes > 0.0 ? total_energy_j / nodes / 300.0 * 1'000.0 : 0.0;
  }

  /// The one field list, in JSON key order: `fn(name, s.field...)` per
  /// field, across any number of RunStatsOf objects (of any Count). It
  /// drives write_run_stats_json and mean_of.
  template <class Fn, class... Stats>
  static void for_each_field(Fn&& fn, Stats&... s) {
    fn("elapsed_s", s.elapsed_s...);
    fn("traffic_duration_s", s.traffic_duration_s...);
    fn("node_count", s.node_count...);
    fn("packets_offered", s.packets_offered...);
    fn("packets_delivered", s.packets_delivered...);
    fn("packets_dropped", s.packets_dropped...);
    fn("duplicate_deliveries", s.duplicate_deliveries...);
    fn("bits_offered", s.bits_offered...);
    fn("bits_delivered", s.bits_delivered...);
    fn("throughput_kbps", s.throughput_kbps...);
    fn("offered_load_kbps", s.offered_load_kbps...);
    fn("delivery_ratio", s.delivery_ratio...);
    fn("total_energy_j", s.total_energy_j...);
    fn("mean_power_mw", s.mean_power_mw...);
    fn("control_bits", s.control_bits...);
    fn("maintenance_bits", s.maintenance_bits...);
    fn("retransmitted_bits", s.retransmitted_bits...);
    fn("piggyback_bits", s.piggyback_bits...);
    fn("total_bits_sent", s.total_bits_sent...);
    fn("overhead_bits", s.overhead_bits...);
    fn("mean_latency_s", s.mean_latency_s...);
    fn("execution_time_s", s.execution_time_s...);
    fn("handshake_attempts", s.handshake_attempts...);
    fn("handshake_successes", s.handshake_successes...);
    fn("contention_losses", s.contention_losses...);
    fn("extra_attempts", s.extra_attempts...);
    fn("extra_successes", s.extra_successes...);
    fn("rx_collisions", s.rx_collisions...);
    fn("efficiency_raw", s.efficiency_raw...);
    fn("fairness_index", s.fairness_index...);
    fn("e2e_originated", s.e2e_originated...);
    fn("e2e_arrived_at_sink", s.e2e_arrived_at_sink...);
    fn("e2e_delivery_ratio", s.e2e_delivery_ratio...);
    fn("mean_hops", s.mean_hops...);
    fn("mean_e2e_latency_s", s.mean_e2e_latency_s...);
    fn("e2e_forwarded", s.e2e_forwarded...);
    fn("e2e_dropped_no_route", s.e2e_dropped_no_route...);
    fn("e2e_dropped_hop_limit", s.e2e_dropped_hop_limit...);
    fn("e2e_dropped_mac", s.e2e_dropped_mac...);
    fn("hop_stretch", s.hop_stretch...);
    fn("mean_per_hop_latency_s", s.mean_per_hop_latency_s...);
    fn("e2e_retransmissions", s.e2e_retransmissions...);
    fn("e2e_failovers", s.e2e_failovers...);
    fn("e2e_dead_letter_exhausted", s.e2e_dead_letter_exhausted...);
    fn("e2e_dead_letter_overflow", s.e2e_dead_letter_overflow...);
    fn("e2e_dead_letter_no_route", s.e2e_dead_letter_no_route...);
    fn("e2e_duplicates_suppressed", s.e2e_duplicates_suppressed...);
    fn("relay_queue_highwater", s.relay_queue_highwater...);
  }
};

using RunStats = RunStatsOf<std::uint64_t>;

/// Jain's fairness index: (sum x)^2 / (n * sum x^2); 1.0 for empty or
/// all-zero input (all-equal shares are perfectly fair).
[[nodiscard]] double jain_fairness(const std::vector<double>& values);

/// Folds summed per-node counters + energy into a RunStats.
[[nodiscard]] RunStats compute_run_stats(const MacCounters& total, double total_energy_j,
                                         std::size_t node_count, Duration elapsed,
                                         Duration traffic_duration, Time traffic_start);

/// Emits every RunStats field as one JSON object, in field-list order.
void write_run_stats_json(JsonWriter& json, const RunStats& stats);

}  // namespace aquamac
