#pragma once
// The shared acoustic medium. Couples transmitting modems to every other
// attached modem through the propagation model, scheduling one arrival
// window per (transmission, receiver) pair.
//
// Delivery modes:
// * kRangeBased reproduces the paper's model: a frame is decodable at
//   receivers within comm_range (1.5 km, Table 2) and acts as pure
//   interference out to interference_range. Collisions follow Eq. (1)
//   via the DeterministicCollisionModel sitting in each modem.
// * kLevelBased is the SINR-physics mode: every modem whose received
//   level clears an interference floor gets the arrival; decodability is
//   the reception model's business.

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "channel/noise.hpp"
#include "channel/propagation.hpp"
#include "channel/propagation_cache.hpp"
#include "channel/spatial_index.hpp"
#include "phy/frame.hpp"
#include "phy/modem.hpp"
#include "sim/simulator.hpp"
#include "util/phase_hook.hpp"
#include "util/time.hpp"

namespace aquamac {

enum class DeliveryMode { kRangeBased, kLevelBased };

/// kLevelBased interference floor is raised to (band noise - this margin):
/// an arrival 30 dB under the noise floor moves the noise-plus-interference
/// power sum by < 0.005 dB and cannot flip any SINR decision, so modeling
/// it would only burn events. This bounds the mode's interference reach —
/// the cutoff radius the spatial index cells derive from.
inline constexpr double kNegligibleInterferenceMarginDb = 30.0;

struct ChannelConfig {
  double freq_khz{10.0};
  double bandwidth_hz{12'000.0};
  double source_level_db{156.0};  ///< dB re uPa @ 1 m
  DeliveryMode mode{DeliveryMode::kRangeBased};
  double comm_range_m{1'500.0};          ///< Table 2 communication range
  double interference_range_m{1'500.0};  ///< >= comm_range_m
  /// kLevelBased: arrivals below this received level are not modeled.
  double interference_floor_db{40.0};
  /// kLevelBased: reception-model detection threshold (absolute level).
  double detection_threshold_db{60.0};
  NoiseParams noise{};

  /// kLevelBased only: also deliver a first-order surface-bounce echo of
  /// every transmission (image-source method). Echoes arrive later and
  /// weaker and act as self-interference/ISI; they are never decodable
  /// (their detection threshold is pinned above their level). Ignored in
  /// kRangeBased mode, whose Eq.-1 semantics predate multipath.
  bool enable_surface_echo{false};
  double surface_reflection_loss_db{6.0};

  /// Spreading law of the propagation model driving this channel. Network
  /// threads it into the model it builds; the kLevelBased cutoff-radius
  /// derivation inverts the same law, so the two must agree when a channel
  /// and model are wired by hand.
  Spreading spreading{Spreading::kPractical};
};

/// Ground-truth record of one transmission, for tests and invariants
/// (e.g. "EW-MAC extra packets never overlap negotiated packets at any
/// receiver"). Not visible to protocols.
struct TransmissionAudit {
  NodeId sender{kNoNode};
  Frame frame{};
  TimeInterval tx_window{};
  struct Reach {
    NodeId receiver;
    TimeInterval window;
    double rx_level_db;
    bool decodable;
  };
  std::vector<Reach> reaches;
};

class AcousticChannel {
 public:
  AcousticChannel(Simulator& sim, const PropagationModel& propagation, ChannelConfig config);

  AcousticChannel(const AcousticChannel&) = delete;
  AcousticChannel& operator=(const AcousticChannel&) = delete;

  /// Sizes the channel for `modem_count` modems with ids
  /// 0..modem_count-1, sizing the path-cache table once (none above
  /// PropagationCache::kMaxCachedId + 1). Must precede the first attach;
  /// a channel never reserved runs uncached.
  void reserve(std::size_t modem_count);

  /// Registers a modem on the medium (modem.set_channel is called).
  /// Throws std::logic_error for a modem attached twice or a taken id.
  void attach(AcousticModem& modem);

  [[nodiscard]] std::size_t modem_count() const { return attached_ids_.size(); }

  /// Invoked by AcousticModem::transmit. Positions are sampled now.
  void start_transmission(const AcousticModem& sender, const Frame& frame, Duration airtime);

  /// Invoked by AcousticModem::set_position after a real move, keeping the
  /// spatial index coherent under mobility (epoch-gated re-bin).
  void on_position_changed(const AcousticModem& modem);

  /// Ground-truth path between two points (harness / tests only).
  [[nodiscard]] PropagationModel::Path path_between(const Vec3& a, const Vec3& b) const {
    return propagation_.compute(a, b, config_.freq_khz);
  }

  /// Band noise level seen by every receiver.
  [[nodiscard]] double noise_level_db() const { return noise_level_db_; }

  [[nodiscard]] const ChannelConfig& config() const { return config_; }

  using AuditFn = std::function<void(const TransmissionAudit&)>;
  void set_audit(AuditFn audit) { audit_ = std::move(audit); }

  /// Optional per-phase instrumentation (serial profiling runs only; see
  /// util/phase_hook.hpp). Null disables.
  void set_phase_hook(PhaseHook* hook) { phase_hook_ = hook; }

  /// Sizes the per-execution-context query workspaces. Must be called
  /// (from a non-parallel context) after Simulator::enable_sharding and
  /// before the first transmission; serial runs need not call it.
  void prepare_parallel() { workspaces_.resize(sim_.context_count()); }

  [[nodiscard]] std::uint64_t transmissions() const {
    return transmissions_.load(std::memory_order_relaxed);
  }
  /// Checkpoint restore: overwrite the transmission tally (the only piece
  /// of channel state that is not a rebuildable cache).
  void set_transmissions(std::uint64_t count) {
    transmissions_.store(count, std::memory_order_relaxed);
  }

  /// Propagation-cache effectiveness counters (diagnostics / benches).
  [[nodiscard]] std::uint64_t path_cache_hits() const { return path_cache_.hits(); }
  [[nodiscard]] std::uint64_t path_cache_misses() const { return path_cache_.misses(); }
  /// Direct-path table entries (see PropagationCache::table_entries).
  [[nodiscard]] std::size_t path_cache_entries() const { return path_cache_.table_entries(); }

  /// Radius beyond which no attached modem can register even as
  /// interference; sizes the spatial index's cells. kRangeBased: the
  /// configured interference range. kLevelBased: inverse link budget at
  /// the effective interference floor.
  [[nodiscard]] double interference_cutoff_m() const { return interference_cutoff_m_; }

  /// kLevelBased floor actually applied to arrivals:
  /// max(config.interference_floor_db, noise - kNegligibleInterferenceMarginDb).
  [[nodiscard]] double effective_interference_floor_db() const { return effective_floor_db_; }

  /// Mobility-triggered spatial re-binnings (diagnostics / tests).
  [[nodiscard]] std::uint64_t spatial_rebins() const { return spatial_index_.rebins(); }

 private:
  /// Per-execution-context query workspace: shard workers run
  /// start_transmission concurrently, so each context gets its own
  /// candidate/scratch buffers (indexed by Simulator::context_index).
  struct Workspace {
    std::vector<AcousticModem*> candidates;
    std::vector<std::size_t> scratch;
  };

  Simulator& sim_;
  const PropagationModel& propagation_;
  ChannelConfig config_;
  double noise_level_db_;
  double effective_floor_db_;
  double interference_cutoff_m_;
  std::unordered_set<NodeId> attached_ids_;
  SpatialReceiverIndex spatial_index_;
  std::vector<Workspace> workspaces_;
  PropagationCache path_cache_;
  AuditFn audit_{};
  PhaseHook* phase_hook_{nullptr};
  std::atomic<std::uint64_t> transmissions_{0};
};

}  // namespace aquamac
