#pragma once
// CW-MAC: the slotted contention-window MAC of ns-3's UAN module, which
// the paper's authors state they modified to build their simulator (§5).
// No RTS/CTS: a queued DATA frame draws a contention counter, decrements
// it on idle slot boundaries, defers while neighbors are heard, and
// transmits when the counter expires; delivery is confirmed by an Ack.
// Included as the substrate sanity baseline.

#include "mac/acked_data_mac.hpp"

namespace aquamac {

class CwMac final : public AckedDataMac {
 public:
  using AckedDataMac::AckedDataMac;

  [[nodiscard]] std::string_view name() const override { return "CW-MAC"; }

  void visit_state(StateArchive& ar) override;

 protected:
  void handle_packet_enqueued() override;
  void contend(bool retry) override;
  void overheard(const Frame& frame, const RxInfo& info) override;
  void handle_reset() override;

 private:
  void arm_countdown();
  void on_slot_boundary();
  void fire();

  std::int64_t counter_{-1};  ///< -1 = not contending
  EventHandle tick_event_{};
};

}  // namespace aquamac
