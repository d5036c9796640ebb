#pragma once
// Workload generation.
//
// kPoisson drives the Fig. 6/7/9/10/11 sweeps: the network-aggregate
// offered load (kbps) is split evenly across traffic-generating nodes and
// each node draws exponential inter-arrival times. kBatch drives Fig. 8
// (execution time): a fixed packet count is enqueued at traffic start and
// the metric is the time until the last one is delivered.
//
// Packet sizes follow Table 2: flexible 1024-4096 bits, default fixed
// 2048 (min == max means fixed size).

#include <cstdint>
#include <functional>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace aquamac {

enum class TrafficMode { kPoisson, kBatch };

struct TrafficConfig {
  TrafficMode mode{TrafficMode::kPoisson};
  /// Network-aggregate offered load in kbps (Poisson mode).
  double offered_load_kbps{0.5};
  /// Payload size range in bits; min == max gives a fixed size.
  std::uint32_t packet_bits_min{2'048};
  std::uint32_t packet_bits_max{2'048};
  /// Batch mode: total packets injected network-wide at traffic start.
  std::uint32_t batch_packets{40};
};

/// Per-node generator; `emit` receives the payload size and is expected to
/// route + enqueue it.
class TrafficSource {
 public:
  using EmitFn = std::function<void(std::uint32_t payload_bits)>;

  TrafficSource(Simulator& sim, TrafficConfig config, double node_rate_pps, Rng rng,
                EmitFn emit);

  /// Begins generation at `start` (Poisson) or injects the node's batch
  /// share immediately at `start` (Batch, `batch_count` packets).
  void start(Time start, std::uint32_t batch_count);

  [[nodiscard]] std::uint64_t generated() const { return generated_; }

  /// Checkpoint encoding: the draw stream and the generated count (the
  /// pending next-arrival event lives in the engine's event capture).
  void visit_state(StateArchive& ar);

 private:
  void schedule_next();
  [[nodiscard]] std::uint32_t draw_size();

  Simulator& sim_;
  TrafficConfig config_;  // lint: ckpt-skip(scenario-derived, rebuilt by resume)
  double rate_pps_;       // lint: ckpt-skip(derived from config at construction)
  Rng rng_;
  EmitFn emit_;  // lint: ckpt-skip(callback wiring, rebound on construction)
  std::uint64_t generated_{0};
};

/// Packets/s for one node when `sources` nodes share the aggregate load.
[[nodiscard]] double per_node_packet_rate(const TrafficConfig& config, std::size_t sources);

}  // namespace aquamac
