#pragma once
// MACA-U — "MACA for Underwater" (Ng, Soh & Motani, GLOBECOM 2008), the
// paper's reference [10]: the classic unslotted RTS/CTS handshake with
// every timer stretched to survive long acoustic propagation. Included as
// an additional baseline below the paper's comparison set: it shows what
// the handshake costs *without* the slot structure S-FAMA adds and
// without any reuse of waiting periods.
//
// Clean-room sketch: a sender launches RTS immediately (small jitter),
// waits up to one round trip for the CTS, and sends DATA on its arrival;
// the receiver answers CTS at once and Acks the data. Overhearers defer
// by the worst-case remainder of the exchange they can infer from the
// packet type (the control packets carry the announced data airtime).

#include "mac/slotted_mac.hpp"

namespace aquamac {

class MacaU final : public SlottedMac {
 public:
  using SlottedMac::SlottedMac;

  [[nodiscard]] std::string_view name() const override { return "MACA-U"; }

  void visit_state(StateArchive& ar) override;

 protected:
  void handle_frame(const Frame& frame, const RxInfo& info) override;
  void handle_packet_enqueued() override;
  /// Outage rejoin: cancels both timers, forgets the awaited DATA and
  /// restarts from Idle, contending again if a packet is queued.
  void handle_reset() override;

 private:
  enum class State { kIdle, kWaitCts, kWaitData, kWaitAck };

  void schedule_attempt(Duration delay);
  void attempt_rts();
  void fail_and_backoff();
  void overhear(const Frame& frame, const RxInfo& info);
  /// All FSM transitions funnel through here (kMacState trace edges).
  void set_state(State next);

  State state_{State::kIdle};
  EventHandle attempt_event_{};
  EventHandle timeout_event_{};
  NodeId expected_data_from_{kNoNode};
  std::uint64_t expected_seq_{0};
};

}  // namespace aquamac
