#pragma once
// MAC protocol framework.
//
// A MacProtocol sits on one AcousticModem as its ModemListener, owns the
// node's upper-layer packet queue, and shares two behaviours the paper
// prescribes for *every* protocol in the comparison:
//   * every received or overheard packet refreshes the one-hop neighbor
//     propagation-delay table from its timestamp (§4.3), and
//   * all transmissions are recorded in per-class counters so throughput,
//     power, and overhead (Figs. 6-11) are derived from first principles.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "net/neighbor_table.hpp"
#include "phy/modem.hpp"
#include "sim/simulator.hpp"
#include "stats/counters.hpp"
#include "stats/trace.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace aquamac {

struct MacConfig {
  /// Size of RTS/CTS/Ack and the extra control packets (Table 2: 64 bits).
  std::uint32_t control_bits{64};
  /// Extra bits piggybacked on *negotiation* control packets by protocols
  /// that ship neighbor info in-band (CS-MAC two-hop announcements).
  std::uint32_t piggyback_bits{0};

  /// Maximum one-hop propagation delay; |ts| = omega + tau_max (§4.1).
  Duration tau_max{Duration::seconds(1)};

  /// Safety margin used when fitting extra packets into idle windows.
  Duration guard{Duration::milliseconds(2)};

  /// Retry policy: binary-exponential backoff in whole slots.
  std::uint32_t max_retries{6};
  std::uint32_t cw_min_slots{2};
  std::uint32_t cw_max_slots{32};

  /// Upper-layer queue bound; enqueues beyond it are dropped (counted).
  std::size_t queue_limit{256};

  /// Neighbor-information surcharge accounting (Fig. 10): every control
  /// frame is charged `control_info_base_bits` plus
  /// `control_info_per_entry_bits * min(one-hop degree, control_info_cap)`
  /// of piggybacked neighbor state. This models §5.3's cost of "carrying
  /// more information as piggyback" without inflating the Table-2 64-bit
  /// control airtime (set by the factory per protocol).
  std::uint32_t control_info_base_bits{0};
  std::uint32_t control_info_per_entry_bits{0};
  std::uint32_t control_info_cap{12};

  /// CS-MAC: number of (id, delay) entries semantically shipped on each
  /// negotiation packet, from which receivers build two-hop state.
  std::uint32_t two_hop_entries_shipped{0};

  // --- EW-MAC ablation switches (bench_ablation_ewmac) ----------------
  bool enable_extra{true};     ///< allow EXR/EXC/EXDATA/EXACK phase
  bool enable_priority{true};  ///< wait-time-weighted rp vs pure random

  // --- robustness / hardening (all defaults preserve legacy behavior) --
  /// Age out neighbor delays not refreshed within this window (the
  /// Network sweeps periodically); zero = trust entries forever.
  Duration neighbor_max_age{};
  /// Declare a neighbor dead after K consecutive silent handshakes (no
  /// CTS, no overheard negotiation); zero disables detection.
  std::uint32_t dead_neighbor_threshold{0};
  /// How long after declaring a neighbor dead to probe for reinstatement.
  Duration dead_probe_interval{Duration::seconds(30)};
  /// Extra safety margin under measured clock uncertainty: EW-MAC shrinks
  /// its extra-packet windows by this much so drift below the slack can
  /// never violate the overlap theorem. Zero = paper behavior.
  Duration guard_slack{};
};

/// End-to-end header carried across hops in multi-hop mode (§3.1/Fig. 1).
struct E2eHeader {
  NodeId origin{kNoNode};
  NodeId final_dst{kNoNode};
  std::uint8_t hop_count{0};
  std::uint64_t e2e_id{0};
  Time created_at{};
};

class MacProtocol : public ModemListener {
 public:
  MacProtocol(Simulator& sim, AcousticModem& modem, NeighborTable& neighbors,
              MacConfig config, Rng rng, Logger log);
  ~MacProtocol() override = default;

  MacProtocol(const MacProtocol&) = delete;
  MacProtocol& operator=(const MacProtocol&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Called once after the network is wired, before traffic starts.
  virtual void start() {}

  /// Upper-layer send request: queue `payload_bits` for one-hop neighbor
  /// `dst`. The MAC delivers it (possibly via extra communication) or
  /// drops it after the retry budget. `e2e` is carried verbatim in the
  /// DATA frame for the relay layer.
  void enqueue_packet(NodeId dst, std::uint32_t payload_bits, E2eHeader e2e = E2eHeader());

  /// Installed by the relay layer: invoked once per *fresh* upper-layer
  /// delivery (duplicates are filtered before this fires).
  using DeliveryHandler = std::function<void(const Frame& frame)>;
  void set_delivery_handler(DeliveryHandler handler) { delivery_handler_ = std::move(handler); }

  /// Invoked when the head packet exhausts its retry budget (relay-layer
  /// loss accounting).
  using DropHandler = std::function<void(NodeId dst, const E2eHeader& e2e)>;
  void set_drop_handler(DropHandler handler) { drop_handler_ = std::move(handler); }

  /// Invoked when the head packet is acknowledged by its one-hop receiver
  /// (the relay reliability layer releases custody on it).
  using SentHandler = std::function<void(NodeId dst, const E2eHeader& e2e)>;
  void set_sent_handler(SentHandler handler) { sent_handler_ = std::move(handler); }

  // --- routing piggyback hooks (DvRouter, docs/routing.md) -------------
  /// Stamps protocol-independent piggyback fields (the DV route ad) onto
  /// every frame this MAC transmits, just before it hits the modem.
  using FrameStampHook = std::function<void(Frame& frame)>;
  void set_frame_stamp_hook(FrameStampHook hook) { stamp_hook_ = std::move(hook); }

  /// Observes every decodable received/overheard frame together with the
  /// clamped measured one-hop delay to its sender (route-ad ingestion).
  using FrameObserveHook = std::function<void(const Frame& frame, Duration measured_delay)>;
  void set_frame_observe_hook(FrameObserveHook hook) { observe_hook_ = std::move(hook); }

  /// Fired when dead-neighbor detection declares `neighbor` dead or aging
  /// evicts it — the routing layer invalidates routes through it.
  using NeighborDownHook = std::function<void(NodeId neighbor)>;
  void set_neighbor_down_hook(NeighborDownHook hook) { neighbor_down_hook_ = std::move(hook); }

  /// Deployment-time neighbor discovery (§4.3): broadcasts a Hello whose
  /// timestamp lets every receiver compute the propagation delay. No-op
  /// when the modem is mid-transmission.
  void broadcast_hello();

  /// Optional structured trace of this MAC's protocol-level events
  /// (state transitions, slot boundaries, contention outcomes, extra
  /// negotiation, neighbor-table updates).
  void set_trace(TraceSink* trace) { trace_ = trace; }

  /// Ages out neighbor entries older than `neighbor_max_age` (traced as
  /// kNeighborEvicted); the Network calls this on a periodic sweep. No-op
  /// when the knob is zero.
  void age_neighbors();

  /// Full MAC amnesia after an outage: wipes the neighbor table and peer
  /// health, invalidates pending probes, and lets the protocol cancel its
  /// in-flight handshake state (handle_reset). The node must re-learn
  /// delays via HELLO/piggyback before trusting anything again.
  void reset_mac_state();

  /// Whether dead-neighbor detection currently considers `node` dead.
  [[nodiscard]] bool neighbor_dead(NodeId node) const;

  /// This MAC's complete runtime state as checkpoint sections
  /// (docs/checkpoint.md): the base visits RNG words, packet queue,
  /// delivery/health bookkeeping and counters; every protocol override
  /// appends its FSM section after calling the base. Pending EventHandles
  /// travel only as armed bits (StateArchive::handle) — resume replays
  /// the prefix, so live handles are regenerated, and the bit is the
  /// invariant part. Resume loads, re-encodes and requires byte
  /// equality, so every field must round-trip exactly.
  virtual void visit_state(StateArchive& ar);

  [[nodiscard]] NodeId id() const { return modem_.id(); }
  [[nodiscard]] MacCounters& counters() { return counters_; }
  [[nodiscard]] const MacCounters& counters() const { return counters_; }
  [[nodiscard]] const NeighborTable& neighbor_table() const { return neighbors_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  // --- ModemListener ---------------------------------------------------
  void on_frame_received(const Frame& frame, const RxInfo& info) final;
  void on_rx_failure(const Frame& frame, RxOutcome outcome, const RxInfo& info) final;
  void on_tx_done(const Frame& frame) final;

 protected:
  struct Packet {
    std::uint64_t id;
    NodeId dst;
    std::uint32_t bits;
    Time enqueued;
    std::uint32_t retries{0};
    E2eHeader e2e{};

    void visit_state(StateArchive& ar);
  };

  /// Protocol hooks (called after common bookkeeping).
  virtual void handle_frame(const Frame& frame, const RxInfo& info) = 0;
  virtual void handle_rx_failure(const Frame& frame, RxOutcome outcome, const RxInfo& info) {
    (void)frame; (void)outcome; (void)info;
  }
  virtual void handle_tx_done(const Frame& frame) { (void)frame; }
  /// A packet joined the queue (queue may have been empty: kick the FSM).
  virtual void handle_packet_enqueued() {}
  /// reset_mac_state() hook: cancel timers, forget handshakes, restart.
  virtual void handle_reset() {}

  /// One consecutive silent handshake toward `dst` (no CTS and nothing
  /// overheard). At `dead_neighbor_threshold` the neighbor is declared
  /// dead (traced) and a reinstatement probe is scheduled. Any reception
  /// from the node clears the count (proof of life).
  void record_handshake_silence(NodeId dst);

  /// Builds a control frame of the protocol's control size (+piggyback
  /// for negotiation types).
  [[nodiscard]] Frame make_control(FrameType type, NodeId dst) const;
  /// Builds a data-class frame carrying `payload_bits`.
  [[nodiscard]] Frame make_data(FrameType type, NodeId dst, std::uint32_t payload_bits) const;
  /// Builds the DATA/EXDATA frame for a queued packet (dst, bits, seq and
  /// the end-to-end header all come from the packet).
  [[nodiscard]] Frame make_data_for(FrameType type, const Packet& packet) const;

  /// Counts and radiates. The modem stamps src and sent_at; the routing
  /// stamp hook (if any) fills the piggybacked route ad first.
  void transmit(Frame frame);

  /// Airtime of one control packet on this modem (omega, §3.1).
  [[nodiscard]] Duration omega() const { return modem_.airtime(control_frame_bits()); }
  [[nodiscard]] std::uint32_t control_frame_bits() const {
    return config_.control_bits + config_.piggyback_bits;
  }
  [[nodiscard]] Duration data_airtime(std::uint32_t bits) const { return modem_.airtime(bits); }

  /// Head-of-line packet, if any.
  [[nodiscard]] const Packet* head() const { return queue_.empty() ? nullptr : &queue_.front(); }

  /// Marks the head packet acknowledged: latency + success accounting.
  void complete_head_packet(bool via_extra);
  /// Drops the head packet (retry budget exhausted).
  void drop_head_packet();
  /// Counts one attempt at the head packet, and a retransmission of
  /// `frame` when the head has been tried before, then transmits it.
  void transmit_attempt(Frame frame);
  /// Charges one failed attempt to the head packet and drops it once
  /// max_retries is spent. Returns whether it was dropped; no-op without
  /// a head packet.
  bool retry_or_drop_head();

  /// Receiver-side delivery accounting for a DATA/EXDATA frame. Returns
  /// false (and counts a duplicate) when this (src, seq) was already
  /// delivered — a retransmission after a lost Ack. Callers still Ack.
  bool deliver_data(const Frame& frame);

  /// Records a MAC-level trace event, stamping `at` and `node`; the
  /// caller fills the kind-specific fields. No-op without a sink.
  void trace_mac(TraceEvent event) const;
  /// Convenience: a kMacState transition event (a = from, b = to).
  void trace_state(int from, int to) const;

  Simulator& sim_;
  AcousticModem& modem_;
  NeighborTable& neighbors_;
  MacConfig config_;  // lint: ckpt-skip(scenario-derived, rebuilt by resume)
  Rng rng_;
  Logger log_;  // lint: ckpt-skip(logging wiring, no simulation state)
  TraceSink* trace_{nullptr};
  MacCounters counters_;
  std::deque<Packet> queue_;
  std::uint64_t next_packet_id_{1};
  /// Highest sequence delivered per sender (senders emit in order).
  std::unordered_map<NodeId, std::uint64_t> delivered_seq_high_;
  DeliveryHandler delivery_handler_{};      // lint: ckpt-skip(callback wiring, rebound on construction)
  DropHandler drop_handler_{};              // lint: ckpt-skip(callback wiring, rebound on construction)
  SentHandler sent_handler_{};              // lint: ckpt-skip(callback wiring, rebound on construction)
  FrameStampHook stamp_hook_{};             // lint: ckpt-skip(callback wiring, rebound on construction)
  FrameObserveHook observe_hook_{};         // lint: ckpt-skip(callback wiring, rebound on construction)
  NeighborDownHook neighbor_down_hook_{};   // lint: ckpt-skip(callback wiring, rebound on construction)

 private:
  struct PeerHealth {
    std::uint32_t silent_failures{0};
    bool dead{false};

    void visit_state(StateArchive& ar);
  };
  std::unordered_map<NodeId, PeerHealth> peer_health_;
  /// Bumped by reset_mac_state(); pending probe events compare it so a
  /// reset invalidates them without tracking handles.
  std::uint64_t health_generation_{0};
};

}  // namespace aquamac
