#pragma once
// Slotted ALOHA with acknowledgements: the floor baseline. No carrier
// negotiation at all — a queued DATA frame is launched at a slot boundary
// and retried with binary-exponential backoff if no Ack returns. Included
// below the paper's comparison set as a sanity floor for the simulator
// (any handshake protocol must beat it once load grows).

#include "mac/acked_data_mac.hpp"

namespace aquamac {

class SlottedAloha final : public AckedDataMac {
 public:
  using AckedDataMac::AckedDataMac;

  [[nodiscard]] std::string_view name() const override { return "S-ALOHA"; }

  void visit_state(StateArchive& ar) override;

 protected:
  void handle_packet_enqueued() override;
  void contend(bool retry) override;
  void handle_reset() override;

 private:
  void schedule_attempt(std::int64_t extra_slots);
  void attempt();

  EventHandle attempt_event_{};
};

}  // namespace aquamac
