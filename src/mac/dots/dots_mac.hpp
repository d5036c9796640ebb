#pragma once
// DOTS-lite — a delay-aware opportunistic transmission protocol in the
// spirit of DOTS (Noh et al., ICNP 2010), which the paper's related-work
// section describes: "each sensor maintains the propagation delay time of
// its ... neighbors, which allows transmitting sensors to avoid
// collisions" with no slot structure at all.
//
// Implemented here as an *extension baseline* (not part of the paper's
// comparison set): senders launch DATA directly, but choose the launch
// instant so that the packet's arrival windows — at the destination and
// at every neighbor whose schedule is predictable from overheard DATA
// headers — avoid all known receptions. Acknowledgements are immediate.
// This exercises the temporal-reuse end of the design space the paper
// positions EW-MAC against.

#include "mac/handshake.hpp"
#include "mac/slotted_mac.hpp"

namespace aquamac {

class DotsMac final : public SlottedMac {
 public:
  using SlottedMac::SlottedMac;

  [[nodiscard]] std::string_view name() const override { return "DOTS"; }
  void start() override;

  void visit_state(StateArchive& ar) override;

  [[nodiscard]] const ScheduleBook& schedule_book() const { return schedule_; }

 protected:
  void handle_frame(const Frame& frame, const RxInfo& info) override;
  void handle_packet_enqueued() override;

 private:
  void schedule_attempt(Duration delay);
  void attempt();
  /// Earliest launch >= `from` whose arrival windows clear every known
  /// reception (destination exempt from the generic check: its window is
  /// what we are placing).
  [[nodiscard]] Time pick_launch(Time from, NodeId dst, Duration tau, Duration dur) const;
  void on_ack_timeout(std::uint64_t packet_id);
  void overhear_data(const Frame& frame, const RxInfo& info);

  bool awaiting_ack_{false};
  std::uint64_t awaited_packet_{0};
  EventHandle attempt_event_{};
  EventHandle timeout_event_{};
  ScheduleBook schedule_;
};

}  // namespace aquamac
