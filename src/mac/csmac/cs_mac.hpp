#pragma once
// CS-MAC — Channel Stealing MAC (Chen et al., OCEANS 2011), slotted
// adaptation per the paper's §5.
//
// Negotiated path: the standard slotted four-way handshake. Reuse
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

#include <optional>

#include "mac/slotted_mac.hpp"

namespace aquamac {

class CsMac final : public SlottedMac {
 public:
  using SlottedMac::SlottedMac;

  [[nodiscard]] std::string_view name() const override { return "CS-MAC"; }
  void start() override;

  void visit_state(StateArchive& ar) override;

 protected:
  void handle_frame(const Frame& frame, const RxInfo& info) override;
  void handle_packet_enqueued() override;

 private:
  enum class State {
    kIdle,
    kWaitCts,
    kWaitData,
    kWaitAck,
    kStealing,  ///< direct DATA radiated into a stolen gap, awaiting ack
  };

  // --- negotiated path -------------------------------------------------
  void schedule_attempt(std::int64_t extra_slots);
  void attempt_rts();
  void fail_and_backoff();
  void decide_cts();

  // --- channel stealing ---------------------------------------------------
  void maybe_steal(const Frame& cts, const RxInfo& info);

  /// Ships up to two_hop_entries_shipped (id, delay) pairs on a
  /// negotiation packet (the in-band two-hop maintenance of §5.3).
  void attach_neighbor_info(Frame& frame) const;

  void overhear(const Frame& frame, const RxInfo& info);

  State state_{State::kIdle};
  EventHandle attempt_event_{};
  EventHandle timeout_event_{};
  EventHandle decide_event_{};

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
