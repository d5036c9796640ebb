#pragma once
// CS-MAC — Channel Stealing MAC (Chen et al., OCEANS 2011), slotted
// adaptation per the paper's §5.
//
// Negotiated path: the HandshakeMac slotted four-way cycle. Reuse
// mechanism: a node that overhears a CTS(j,k) computes, from the pair
// delay it just learned and its (two-hop-maintained) neighbor knowledge,
// whether its own DATA packet fits inside the negotiated pair's waiting
// gap — and if so *sends the data directly, with no negotiation at all*.
// The steal requires the data airtime to be smaller than the pair
// propagation delay (the paper's stated CS-MAC assumption) and checks only
// the stolen pair's schedule, not other neighbors' — which is exactly why
// its throughput collapses under high offered load (Fig. 6) and why it
// loses its advantage in dense deployments (Fig. 7).
//
// Cost model per the paper (§5.3): CS-MAC ships two-hop neighbor info on
// its negotiation packets — modeled by attaching neighbor_info entries
// (two_hop_entries_shipped) that receivers fold into their two-hop
// tables, and charged to overhead via the control_info_* surcharge.

#include "mac/handshake_mac.hpp"

namespace aquamac {

class CsMac final : public HandshakeMac {
 public:
  using HandshakeMac::HandshakeMac;

  [[nodiscard]] std::string_view name() const override { return "CS-MAC"; }

 protected:
  void overheard(const Frame& frame, const RxInfo& info) override;
  /// Ships up to two_hop_entries_shipped (id, delay) pairs on every RTS
  /// and CTS (the in-band two-hop maintenance of §5.3).
  void decorate_negotiation(Frame& frame) override;
  void handle_extra_frame(const Frame& frame, const RxInfo& info) override;

 private:
  /// Direct DATA radiated into a stolen gap, awaiting its ExAck.
  static constexpr State kStealing{4};

  void maybe_steal(const Frame& cts, const RxInfo& info);
};

}  // namespace aquamac
