#pragma once
// Slotted ALOHA with acknowledgements: the floor baseline. No carrier
// negotiation at all — a queued DATA frame is launched at a slot boundary
// and retried with binary-exponential backoff if no Ack returns. Included
// below the paper's comparison set as a sanity floor for the simulator
// (any handshake protocol must beat it once load grows).

#include "mac/slotted_mac.hpp"

namespace aquamac {

class SlottedAloha final : public SlottedMac {
 public:
  using SlottedMac::SlottedMac;

  [[nodiscard]] std::string_view name() const override { return "S-ALOHA"; }
  void start() override;

  void visit_state(StateArchive& ar) override;

 protected:
  void handle_frame(const Frame& frame, const RxInfo& info) override;
  void handle_tx_done(const Frame& frame) override;
  void handle_packet_enqueued() override;

 private:
  void schedule_attempt(std::int64_t extra_slots);
  void attempt();
  void on_ack_timeout(std::uint64_t packet_id);

  bool awaiting_ack_{false};
  std::uint64_t awaited_packet_{0};
  EventHandle attempt_event_{};
  EventHandle timeout_event_{};
};

}  // namespace aquamac
