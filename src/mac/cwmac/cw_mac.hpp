#pragma once
// CW-MAC: the slotted contention-window MAC of ns-3's UAN module, which
// the paper's authors state they modified to build their simulator (§5).
// No RTS/CTS: a queued DATA frame draws a contention counter, decrements
// it on idle slot boundaries, defers while neighbors are heard, and
// transmits when the counter expires; delivery is confirmed by an Ack.
// Included as the substrate sanity baseline.

#include "mac/slotted_mac.hpp"

namespace aquamac {

class CwMac final : public SlottedMac {
 public:
  using SlottedMac::SlottedMac;

  [[nodiscard]] std::string_view name() const override { return "CW-MAC"; }
  void start() override;

  void visit_state(StateArchive& ar) override;

 protected:
  void handle_frame(const Frame& frame, const RxInfo& info) override;
  void handle_packet_enqueued() override;

 private:
  void arm_countdown();
  void on_slot_boundary();
  void fire();
  void on_ack_timeout(std::uint64_t packet_id);

  std::int64_t counter_{-1};  ///< -1 = not contending
  bool awaiting_ack_{false};
  std::uint64_t awaited_packet_{0};
  EventHandle tick_event_{};
  EventHandle timeout_event_{};
};

}  // namespace aquamac
