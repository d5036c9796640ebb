#pragma once
// EW-MAC — "Exploit Waiting" MAC, the paper's contribution (§4).
//
// On top of the slotted four-way handshake (RTS/CTS/DATA/ACK on slot
// boundaries, Eq.-5 Ack slots), EW-MAC adds the extra-communication
// phase: a sensor i that loses contention for its intended receiver j —
// detected by overhearing a negotiation packet RTS(j,k) or CTS(j,k) from
// j — may negotiate an EXR/EXC exchange inside j's idle waiting periods
// and then deliver EXDATA timed by Eq. (6) so that it reaches j exactly
// after j's negotiated exchange finished, never overlapping a negotiated
// packet at any neighbor whose schedule i can predict.
//
// State machine per Fig. 3: Idle, Quiet (via quiet_until), WaitingCTS,
// CheckingScheduling (the slot-boundary CTS decision), WaitingData,
// CheckingData (implicit in the DATA handler), WaitingAck, AskingExtra,
// AskedExtra.
//
// Ablation switches (MacConfig): enable_extra gates the whole extra
// phase; enable_priority gates the wait-time-weighted rp of §3.1.

#include <optional>
#include <vector>

#include "mac/handshake.hpp"
#include "mac/slotted_mac.hpp"

namespace aquamac {

class EwMac final : public SlottedMac {
 public:
  using SlottedMac::SlottedMac;

  [[nodiscard]] std::string_view name() const override { return "EW-MAC"; }
  void start() override;

  /// Exposed for tests: the node's current schedule predictions.
  [[nodiscard]] const ScheduleBook& schedule_book() const { return schedule_; }

  void visit_state(StateArchive& ar) override;

 protected:
  void handle_frame(const Frame& frame, const RxInfo& info) override;
  void handle_packet_enqueued() override;
  void handle_reset() override;

 private:
  enum class State {
    kIdle,
    kWaitCts,
    kWaitData,
    kWaitAck,
    kAskingExtra,  ///< EXR sent, awaiting EXC
    kWaitExAck,    ///< EXDATA scheduled/sent, awaiting EXACK
  };

  // --- sender side: negotiated path -----------------------------------
  void schedule_attempt(std::int64_t extra_slots);
  void attempt_rts();
  void fail_and_backoff();
  void on_cts(const Frame& frame, const RxInfo& info);
  void on_ack(const Frame& frame);

  // --- receiver side ----------------------------------------------------
  void on_rts(const Frame& frame, const RxInfo& info);
  void decide_cts();
  void on_data(const Frame& frame);

  // --- extra communication: asking side (sensor i) ---------------------
  /// Contention loss detected: j negotiated with k instead. Try the extra
  /// phase; falls back to backoff when infeasible.
  void contention_lost(const Frame& negotiation, const RxInfo& info);
  void on_exc(const Frame& frame, const RxInfo& info);
  void on_exack(const Frame& frame);
  void abandon_extra();

  // --- extra communication: asked side (sensor j) ----------------------
  void on_exr(const Frame& frame, const RxInfo& info);
  void on_exdata(const Frame& frame);

  // --- overhearing / schedule prediction --------------------------------
  void overhear(const Frame& frame, const RxInfo& info);
  /// Adds the predicted busy windows of the exchange announced by an
  /// overheard negotiation packet to the schedule book.
  void predict_exchange(const Frame& frame, const RxInfo& info);

  /// True when a transmission [tx_begin, tx_begin+dur) would, for every
  /// neighbor with known delay and predicted receive windows, arrive
  /// clear of those windows.
  [[nodiscard]] bool clear_at_neighbors(Time tx_begin, Duration dur, NodeId exempt) const;

  [[nodiscard]] double make_priority(const Packet& packet);

  /// All FSM transitions funnel through here so the trace sees every
  /// kMacState edge.
  void set_state(State next);

  State state_{State::kIdle};
  EventHandle attempt_event_{};
  EventHandle timeout_event_{};
  EventHandle decide_event_{};

  // Receiver-side RTS collection for the slot-boundary decision (§3.1:
  // pick the highest rp among the RTSs of the slot).
  struct Candidate {
    NodeId src;
    std::uint64_t seq;
    Duration data_duration;
    Duration delay_to_src;
    double rp;

    void visit_state(StateArchive& ar);
  };
  std::vector<Candidate> candidates_;
  NodeId expected_data_from_{kNoNode};
  std::uint64_t expected_seq_{0};
  /// While in kWaitData: when the negotiated DATA starts arriving and the
  /// Eq.-5 Ack slot of our own exchange (used to bound granted extras).
  Time neg_data_begin_{};
  Time neg_ack_slot_start_{};

  // Asking-side extra state (sensor i).
  struct ExtraPlan {
    NodeId j{kNoNode};
    bool j_is_receiver{false};
    std::uint64_t seq{0};
    Duration tau_ij{};
    Duration tau_jk{};
    Duration neg_data_duration{};
    Time ack_slot_start{};  ///< slot start of the negotiated Ack (Eq. 5)

    void visit_state(StateArchive& ar);
  };
  std::optional<ExtraPlan> extra_;

  // Asked-side extra state (sensor j).
  struct ExtraGrant {
    NodeId i{kNoNode};
    std::uint64_t seq{0};
    Time expires{};

    void visit_state(StateArchive& ar);
  };
  std::optional<ExtraGrant> grant_;
  EventHandle grant_expiry_event_{};

  ScheduleBook schedule_;
};

}  // namespace aquamac
