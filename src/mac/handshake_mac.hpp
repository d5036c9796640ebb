#pragma once
// HandshakeMac: the slotted RTS/CTS/DATA/ACK cycle shared by S-FAMA,
// ROPA, CS-MAC and EW-MAC (§4, §5), written once.
//
// Sender: an attempt fires on a slot boundary. While the node is quiet,
// transmitting, holding RTSs it must answer, or blocked by its protocol,
// the attempt defers to the first boundary after the quiet period.
// Otherwise RTS goes out in slot t and the CTS is awaited until S(t+3).
// On CTS, DATA leaves at the next boundary and the Ack is awaited until
// three slots past the Eq.-5 Ack slot. A CTS or Ack timeout backs off in
// whole slots and drops the packet once max_retries is spent.
//
// Receiver: RTSs addressed to an idle node are collected until the next
// boundary, where one of them wins the CTS. DATA is awaited for
// 1 + ceil((TD + tau) / |ts|) + 2 slots; on delivery the Ack leaves at the
// next boundary, which Eq. (5) makes the Ack slot.
//
// A protocol adds only its own deltas through the hooks below: how it
// overhears, what it does on a contention loss, what rides on RTS/CTS,
// extra defer conditions and extra frame types (docs/protocols.md has
// the per-protocol table). MACA-U is unslotted — immediate CTS/DATA/ACK,
// continuous timeouts — and stays on SlottedMac.

#include <cstdint>
#include <functional>
#include <vector>

#include "mac/slotted_mac.hpp"

namespace aquamac {

class HandshakeMac : public SlottedMac {
 public:
  using SlottedMac::SlottedMac;

  void visit_state(StateArchive& ar) override;

 protected:
  /// FSM states shared by every handshake protocol (the kMacState a/b
  /// values); a protocol numbers its own states from 4 up.
  enum class State : std::uint32_t { kIdle, kWaitCts, kWaitData, kWaitAck };

  /// An RTS addressed to us, held until the slot-boundary CTS decision.
  struct Candidate {
    NodeId src;
    std::uint64_t seq;
    Duration data_duration;
    Duration delay_to_src;
    double rp;  ///< the RTS's priority value (0 unless the protocol sets one)

    void visit_state(StateArchive& ar);
  };

  void handle_frame(const Frame& frame, const RxInfo& info) final;
  void handle_packet_enqueued() final;

  // --- the cycle, for protocol additions ----------------------------------
  /// Arms an attempt `extra_slots` slots after the next boundary (no-op
  /// while one is armed).
  void schedule_attempt(std::int64_t extra_slots);
  /// Back to Idle; retries the head packet after a backoff, or drops it
  /// once the retry budget is spent.
  void fail_and_backoff();
  /// Back to Idle; with a packet queued, contend again from the next
  /// boundary.
  void return_to_idle();
  /// All FSM transitions funnel through here (kMacState trace edges).
  void set_state(State next);
  [[nodiscard]] State state() const { return state_; }
  /// Counts and traces one lost contention round; `negotiation` is the
  /// overheard packet that revealed it, if any.
  void record_contention_loss(const Frame* negotiation = nullptr);
  /// The overhearer's quiet rules for a negotiated exchange whose pair
  /// delay is taken as `tau_pair`: through the CTS, DATA and Ack that an
  /// overheard RTS or CTS announces, and through the Ack after a DATA.
  void keep_quiet_for(const Frame& frame, const RxInfo& info, Duration tau_pair);
  /// Visits the cycle's state, then `own`, in one section named after
  /// the protocol ("ew-mac", "s-fama", ...).
  void visit_handshake(StateArchive& ar, const std::function<void(StateArchive&)>& own);
  /// Outage rejoin: cancels the cycle's timers, forgets collected RTSs
  /// and the awaited DATA, and restarts from Idle.
  void reset_handshake();

  // --- hooks ----------------------------------------------------------------
  /// A frame addressed to another node (after the delay-table refresh).
  virtual void overheard(const Frame& frame, const RxInfo& info) = 0;
  /// While waiting for its CTS, the node overheard its destination
  /// negotiating with someone else (Fig. 3). Default: keep waiting for
  /// the CTS timeout.
  virtual void contention_lost(const Frame& /*negotiation*/, const RxInfo& /*info*/) {}
  /// Last touch on an outgoing RTS or CTS before it is radiated.
  virtual void decorate_negotiation(Frame& /*frame*/) {}
  /// Extra reason to stay out of a new negotiation: defers attempts and
  /// refuses RTSs and CTS decisions.
  [[nodiscard]] virtual bool negotiation_blocked() const { return false; }
  /// A frame addressed to us that is not RTS, CTS, DATA or Ack.
  virtual void handle_extra_frame(const Frame& /*frame*/, const RxInfo& /*info*/) {}
  /// Which collected RTS gets the CTS. Default: the first of the slot.
  [[nodiscard]] virtual const Candidate& contention_winner(
      const std::vector<Candidate>& candidates) const {
    return candidates.front();
  }
  /// Slots a receiver waits after delivering DATA before its own attempt.
  [[nodiscard]] virtual std::int64_t slots_after_data() const { return 1; }
  /// The CTS to `winner` has just been radiated.
  virtual void cts_sent(const Candidate& /*winner*/) {}
  /// The CTS never came and nothing revealed a lost contention.
  virtual void cts_timed_out() {}
  /// fail_and_backoff() has returned the node to Idle.
  virtual void backed_off() {}
  /// The Ack for the head packet arrived and the packet is complete.
  virtual void handshake_completed() { return_to_idle(); }

  EventHandle timeout_event_{};
  NodeId expected_data_from_{kNoNode};
  std::uint64_t expected_seq_{0};

 private:
  /// Schedules attempt_rts() at `when` into attempt_event_.
  void arm_attempt(Time when);
  void attempt_rts();
  void on_rts(const Frame& frame, const RxInfo& info);
  void decide_cts();
  void on_cts(const Frame& frame, const RxInfo& info);
  void on_data(const Frame& frame);
  void on_ack(const Frame& frame);

  State state_{State::kIdle};
  EventHandle attempt_event_{};
  EventHandle decide_event_{};
  /// Receiver side: the RTSs of the current slot addressed to us.
  std::vector<Candidate> candidates_;
};

}  // namespace aquamac
