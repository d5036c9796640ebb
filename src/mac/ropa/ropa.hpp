#pragma once
// ROPA — Reverse Opportunistic Packet Appending (Ng, Soh & Motani 2013),
// in the slotted adaptation the paper compares against (§5).
//
// The negotiated path is the standard slotted four-way handshake. The
// reuse mechanism is sender-side only: a neighbor A holding a packet
// *destined to* a sender S that has just radiated an RTS may slip an RTA
// (reverse request) into S's idle RTS->CTS waiting window. When S's own
// exchange completes, S grants the recorded appenders one by one and
// receives their data without their ever contending.
//
// Per the paper's accounting (§5.2-5.3), ROPA's control packets carry
// extra neighbor information, charged to overhead via the MacConfig
// control_info_* surcharge set by the factory.

#include <optional>
#include <vector>

#include "mac/slotted_mac.hpp"

namespace aquamac {

class Ropa final : public SlottedMac {
 public:
  using SlottedMac::SlottedMac;

  [[nodiscard]] std::string_view name() const override { return "ROPA"; }
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
    kWaitGrant,    ///< appender: RTA sent, awaiting the sender's grant
    kAppendData,   ///< appender: granted, data scheduled/sent, awaiting ack
    kGranting,     ///< initiator: draining the recorded appender list
  };

  /// Max appenders served per exchange (keeps the append train bounded).
  static constexpr std::size_t kMaxAppenders = 2;

  // --- negotiated path ---------------------------------------------------
  void schedule_attempt(std::int64_t extra_slots);
  void attempt_rts();
  void fail_and_backoff();
  void decide_cts();
  void send_ack(NodeId dst, std::uint64_t seq, FrameType type);

  // --- appending: appender side (A) -------------------------------------
  void maybe_send_rta(const Frame& rts, const RxInfo& info);
  void on_grant(const Frame& frame);

  // --- appending: initiator side (S) -------------------------------------
  void begin_grant_phase();
  void grant_next();

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
  bool expected_is_append_{false};

  /// Initiator: appenders recorded during the RTS->CTS wait.
  struct Appender {
    NodeId id;
    std::uint64_t seq;
    Duration data_duration;

    void visit_state(StateArchive& ar);
  };
  std::vector<Appender> appenders_;
};

}  // namespace aquamac
