#pragma once
// EW-MAC — "Exploit Waiting" MAC, the paper's contribution (§4).
//
// On top of the HandshakeMac slotted four-way cycle (RTS/CTS/DATA/ACK on
// slot boundaries, Eq.-5 Ack slots), EW-MAC adds the extra-communication
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
#include "mac/handshake_mac.hpp"

namespace aquamac {

class EwMac final : public HandshakeMac {
 public:
  using HandshakeMac::HandshakeMac;

  [[nodiscard]] std::string_view name() const override { return "EW-MAC"; }

  /// Exposed for tests: the node's current schedule predictions.
  [[nodiscard]] const ScheduleBook& schedule_book() const { return schedule_; }

  void visit_state(StateArchive& ar) override;

 protected:
  void handle_reset() override;

  // --- HandshakeMac hooks -------------------------------------------------
  /// Predicts the overheard exchange into the schedule book and keeps
  /// quiet for it, sized by the announced pair delay.
  void overheard(const Frame& frame, const RxInfo& info) override;
  /// Contention loss detected: j negotiated with k instead. Try the extra
  /// phase; falls back to backoff when infeasible.
  void contention_lost(const Frame& negotiation, const RxInfo& info) override;
  /// Stamps the wait-time-weighted priority rp on every RTS (§3.1).
  void decorate_negotiation(Frame& frame) override;
  /// A held extra-communication grant keeps the node out of negotiation.
  [[nodiscard]] bool negotiation_blocked() const override { return grant_.has_value(); }
  void handle_extra_frame(const Frame& frame, const RxInfo& info) override;
  /// §3.1: the RTS with the highest rp wins the slot.
  [[nodiscard]] const Candidate& contention_winner(
      const std::vector<Candidate>& candidates) const override;
  void cts_sent(const Candidate& winner) override;
  /// The timeout fires only on true silence: overhearing j's own
  /// negotiation cancels it (contention_lost), so no CTS and nothing
  /// overheard means the destination may be gone.
  void cts_timed_out() override;
  void backed_off() override { extra_.reset(); }

 private:
  static constexpr State kAskingExtra{4};  ///< EXR sent, awaiting EXC
  static constexpr State kWaitExAck{5};    ///< EXDATA scheduled/sent, awaiting EXACK

  // --- extra communication: asking side (sensor i) ---------------------
  void on_exc(const Frame& frame);
  void on_exack(const Frame& frame);
  void abandon_extra();

  // --- extra communication: asked side (sensor j) ----------------------
  void on_exr(const Frame& frame);
  void on_exdata(const Frame& frame);

  // --- schedule prediction ------------------------------------------------
  /// Adds the predicted busy windows of the exchange announced by an
  /// overheard negotiation packet to the schedule book.
  void predict_exchange(const Frame& frame, const RxInfo& info);

  /// True when a transmission [tx_begin, tx_begin+dur) would, for every
  /// neighbor with known delay and predicted receive windows, arrive
  /// clear of those windows.
  [[nodiscard]] bool clear_at_neighbors(Time tx_begin, Duration dur, NodeId exempt) const;

  [[nodiscard]] double make_priority(const Packet& packet);

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
