#pragma once
// AckedDataMac: the handshake-free acknowledged-DATA cycle shared by
// slotted ALOHA and CW-MAC, written once — the random-access family of
// the contention MACs, next to HandshakeMac's RTS/CTS family.
//
// Sender: send_head() radiates the head packet's DATA and awaits its Ack
// until the next boundary + (Eq.-5 data slots + 2) slots. A timeout
// retries the packet, or drops it once max_retries is spent.
//
// Receiver: a DATA addressed to us is delivered and Acked at the next
// slot boundary; the Ack that matches the awaited packet completes it.
//
// A protocol adds only how it chooses the slot to send in (contend) and
// what it makes of frames addressed to others (overheard). Neither the
// cycle nor its users emit MAC trace events.

#include <cstdint>
#include <functional>

#include "mac/slotted_mac.hpp"

namespace aquamac {

class AckedDataMac : public SlottedMac {
 public:
  using SlottedMac::SlottedMac;

  void visit_state(StateArchive& ar) override;

 protected:
  void handle_frame(const Frame& frame, const RxInfo& info) final;

  /// Sends the head packet's DATA and arms its Ack deadline.
  void send_head();
  [[nodiscard]] bool awaiting_ack() const { return awaiting_ack_; }
  /// Visits the cycle's state, then `own`, in one section named after
  /// the protocol ("s-aloha", "cw-mac").
  void visit_acked(StateArchive& ar, const std::function<void(StateArchive&)>& own);
  /// Outage rejoin: cancels the Ack deadline, forgets the awaited packet
  /// and, with a packet queued, contends afresh. A protocol that keeps
  /// more state clears its own and calls this.
  void handle_reset() override;

  // --- hooks ----------------------------------------------------------------
  /// The cycle is free and a packet is queued: choose a slot to send it
  /// in. `retry` is set when the head's Ack timed out and the packet is
  /// to be tried again (not after a success or a drop).
  virtual void contend(bool retry) = 0;
  /// A frame addressed to another node. Default: ignore it.
  virtual void overheard(const Frame& /*frame*/, const RxInfo& /*info*/) {}

 private:
  void on_ack_timeout(std::uint64_t packet_id);
  void on_ack(const Frame& frame);

  bool awaiting_ack_{false};
  std::uint64_t awaited_packet_{0};
  EventHandle timeout_event_{};
};

}  // namespace aquamac
