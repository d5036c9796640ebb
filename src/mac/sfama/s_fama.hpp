#pragma once
// Slotted FAMA (Molins & Stojanovic 2006), as described in the paper's §5:
// time is slotted; RTS, CTS, DATA and Ack all start on slot boundaries; a
// node overhearing a control packet in slot t or t+1 keeps quiet for the
// whole (conservatively sized, tau_max-based) exchange. No reuse of idle
// waiting periods — this is the baseline every figure normalizes against.

#include "mac/slotted_mac.hpp"

namespace aquamac {

class SFama final : public SlottedMac {
 public:
  using SlottedMac::SlottedMac;

  [[nodiscard]] std::string_view name() const override { return "S-FAMA"; }
  void start() override;

  void visit_state(StateArchive& ar) override;

 protected:
  void handle_frame(const Frame& frame, const RxInfo& info) override;
  void handle_packet_enqueued() override;

 private:
  enum class State { kIdle, kWaitCts, kWaitData, kWaitAck };

  // --- sender side ----------------------------------------------------
  void schedule_attempt(std::int64_t extra_slots);
  void attempt_rts();
  void fail_and_backoff();

  // --- receiver side ----------------------------------------------------
  void decide_cts();
  void send_ack(NodeId dst, std::uint64_t seq);

  // --- overhearing -------------------------------------------------------
  void overhear(const Frame& frame, const RxInfo& info);

  /// All FSM transitions funnel through here (kMacState trace edges).
  void set_state(State next);

  State state_{State::kIdle};
  EventHandle attempt_event_{};
  EventHandle timeout_event_{};
  EventHandle decide_event_{};

  /// Receiver-side: first RTS of the current slot addressed to us.
  struct PendingRts {
    NodeId src;
    std::uint64_t seq;
    Duration data_duration;
    Duration delay_to_src;

    void visit_state(StateArchive& ar);
  };
  std::optional<PendingRts> pending_rts_;
  NodeId expected_data_from_{kNoNode};
  std::uint64_t expected_seq_{0};
};

}  // namespace aquamac
