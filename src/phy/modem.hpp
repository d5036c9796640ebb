#pragma once
// Half-duplex acoustic modem.
//
// The modem is the PHY endpoint: it turns frames into timed transmissions
// on the channel, keeps a ledger of arrival windows, and at the end of
// each window asks the reception model whether the frame survived
// (Eq. 1 semantics for the deterministic model). The MAC above it sees
// only three callbacks: a successfully received frame, a reception
// failure (collision/garble — content is NOT meaningful to protocols,
// only to stats), and transmit completion.

#include <cstdint>
#include <functional>
#include <vector>

#include "channel/reception.hpp"
#include "phy/energy.hpp"
#include "phy/frame.hpp"
#include "sim/simulator.hpp"
#include "stats/trace.hpp"
#include "util/phase_hook.hpp"
#include "util/time.hpp"
#include "util/vec3.hpp"

namespace aquamac {

class AcousticChannel;

struct ModemConfig {
  double bit_rate_bps{12'000.0};  ///< Table 2: 12 kbps bandwidth
  PowerProfile power{};
};

/// Metadata accompanying a delivered frame.
struct RxInfo {
  Time arrival_begin{};
  Time arrival_end{};
  double rx_level_db{0.0};
  /// arrival_begin - frame.sent_at: the one-hop propagation delay the
  /// receiver measures under the synchronization assumption (§4.3).
  Duration measured_delay{};
};

/// Implemented by the MAC layer sitting on the modem.
class ModemListener {
 public:
  virtual ~ModemListener() = default;
  /// A frame arrived intact.
  virtual void on_frame_received(const Frame& frame, const RxInfo& info) = 0;
  /// A frame arrived but was lost; protocols must not read its content
  /// (it is provided for statistics and tests only).
  virtual void on_rx_failure(const Frame& frame, RxOutcome outcome, const RxInfo& info) {
    (void)frame; (void)outcome; (void)info;
  }
  /// The modem finished radiating a frame this MAC submitted.
  virtual void on_tx_done(const Frame& frame) = 0;
};

class AcousticModem {
 public:
  AcousticModem(Simulator& sim, NodeId id, ModemConfig config,
                const ReceptionModel& reception, Rng rng);

  AcousticModem(const AcousticModem&) = delete;
  AcousticModem& operator=(const AcousticModem&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }

  void set_listener(ModemListener* listener) { listener_ = listener; }
  /// Optional structured trace of this modem's PHY events.
  void set_trace(TraceSink* trace) { trace_ = trace; }
  /// Optional per-phase instrumentation around finish_arrival (the MAC
  /// processing phase; serial profiling runs only — util/phase_hook.hpp).
  void set_phase_hook(PhaseHook* hook) { phase_hook_ = hook; }

  /// Hard node failure (battery death, flooding): a non-operational
  /// modem radiates nothing and hears nothing. Protocols above are not
  /// told — their retries and the neighbors' timeouts do the mourning.
  void set_operational(bool operational) { operational_ = operational; }
  [[nodiscard]] bool operational() const { return operational_; }

  /// Clock-synchronization error of this node (§3.1 assumes zero). The
  /// offset skews outgoing timestamps and the receiver-side arrival
  /// reading, so measured one-hop delays absorb the *difference* of the
  /// two nodes' offsets — exactly how real desynchronization enters.
  void set_clock_offset(Duration offset) { clock_offset_ = offset; }
  [[nodiscard]] Duration clock_offset() const { return clock_offset_; }
  /// Clock *drift*: the offset additionally grows at `ppm` parts per
  /// million of simulation time (a FaultPlan knob). With drift at zero
  /// the modem degenerates exactly to the static-offset behavior.
  void set_clock_drift_ppm(double ppm) { clock_drift_ppm_ = ppm; }
  [[nodiscard]] double clock_drift_ppm() const { return clock_drift_ppm_; }
  /// One random-walk jitter step: permanently shifts the static offset
  /// (the FaultPlan schedules these at its jitter interval).
  void add_clock_jitter(Duration delta) { clock_offset_ += delta; }
  /// Total clock error (offset + jitter so far + drift) read at sim time
  /// `t`; what this node's timestamps and delay readings are skewed by.
  [[nodiscard]] Duration clock_error_at(Time t) const {
    if (clock_drift_ppm_ == 0.0) return clock_offset_;
    return clock_offset_ + Duration::from_seconds(clock_drift_ppm_ * 1e-6 * t.to_seconds());
  }
  /// Moves the modem. Real moves bump the position epoch and notify the
  /// channel so its spatial index re-bins this modem before any later
  /// transmission queries it (defined in modem.cpp: needs AcousticChannel).
  void set_position(const Vec3& pos);
  [[nodiscard]] const Vec3& position() const { return position_; }
  /// Bumped every time the position actually changes (mobility updates).
  /// PropagationCache entries record the epochs they were computed at, so
  /// a moved endpoint invalidates its cached paths automatically.
  [[nodiscard]] std::uint64_t position_epoch() const { return position_epoch_; }

  /// Attached by AcousticChannel::attach; one channel per modem.
  void set_channel(AcousticChannel* channel) { channel_ = channel; }

  /// External impairment hook (FaultPlan burst loss / noise storms):
  /// consulted once per otherwise-successful arrival; returning true
  /// downgrades the reception to kChannelError.
  using ImpairmentFn = std::function<bool(NodeId receiver, Time arrival_begin)>;
  void set_impairment(ImpairmentFn impairment) { impairment_ = std::move(impairment); }

  /// Airtime of a frame of `bits` at this modem's rate.
  [[nodiscard]] Duration airtime(std::uint32_t bits) const {
    return Duration::from_seconds(static_cast<double>(bits) / config_.bit_rate_bps);
  }

  /// Radiates `frame` starting now. The modem stamps frame.sent_at.
  /// Precondition: not currently transmitting (MAC protocol bug if so).
  void transmit(Frame frame);

  [[nodiscard]] bool transmitting() const;
  /// End of the current transmission (valid only while transmitting()).
  [[nodiscard]] Time tx_end_time() const { return current_tx_end_; }

  [[nodiscard]] const EnergyMeter& energy() const { return energy_; }

  // --- channel-facing interface -------------------------------------
  /// Called by the channel when the leading edge of a frame reaches this
  /// modem; the modem schedules the window-end decision itself.
  void begin_arrival(const Frame& frame, double rx_level_db, TimeInterval window,
                     double noise_level_db, double detection_threshold_db);

  // --- statistics hooks ----------------------------------------------
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_received() const { return frames_received_; }
  [[nodiscard]] std::uint64_t rx_losses() const { return rx_losses_; }

  /// Checkpoint encoding of the modem's mutable runtime state: the
  /// arrival/tx ledgers, energy and clock accumulators, position (with
  /// epoch) and the PHY rng (docs/checkpoint.md). Loading assigns the
  /// position directly without re-binning the channel — resume is
  /// replay-based, so the channel index is already consistent.
  void visit_state(StateArchive& ar);

 private:
  struct Arrival {
    std::uint64_t id;
    Frame frame;
    double rx_level_db;
    TimeInterval window;
    double noise_level_db;
    double detection_threshold_db;

    void visit_state(StateArchive& ar);
  };

  void finish_arrival(std::uint64_t arrival_id);
  void prune_ledgers();

  Simulator& sim_;
  NodeId id_;           // lint: ckpt-skip(config, fixed per node)
  ModemConfig config_;  // lint: ckpt-skip(scenario-derived, rebuilt by resume)
  const ReceptionModel& reception_;
  Rng rng_;

  void trace_event(TraceEventKind kind, const Frame& frame, RxOutcome outcome,
                   TimeInterval window) const;

  AcousticChannel* channel_{nullptr};
  ModemListener* listener_{nullptr};
  TraceSink* trace_{nullptr};
  PhaseHook* phase_hook_{nullptr};
  Vec3 position_{};
  std::uint64_t position_epoch_{1};  ///< 0 is reserved for "never cached"

  std::vector<Arrival> arrivals_;       ///< ledger of windows still able to overlap
  std::vector<TimeInterval> tx_windows_;
  std::uint64_t next_arrival_id_{1};
  Time current_tx_end_{Time::zero()};

  EnergyMeter energy_;
  Time last_rx_accounted_until_{Time::zero()};
  Duration clock_offset_{};
  double clock_drift_ppm_{0.0};
  ImpairmentFn impairment_{};  // lint: ckpt-skip(callback wiring, rebound on construction)
  bool operational_{true};

  std::uint64_t frames_sent_{0};
  std::uint64_t frames_received_{0};
  std::uint64_t rx_losses_{0};
};

}  // namespace aquamac
