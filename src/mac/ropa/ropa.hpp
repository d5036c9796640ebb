#pragma once
// ROPA — Reverse Opportunistic Packet Appending (Ng, Soh & Motani 2013),
// in the slotted adaptation the paper compares against (§5).
//
// The negotiated path is the HandshakeMac slotted four-way cycle. The
// reuse mechanism is sender-side only: a neighbor A holding a packet
// *destined to* a sender S that has just radiated an RTS may slip an RTA
// (reverse request) into S's idle RTS->CTS waiting window. When S's own
// exchange completes, S grants the recorded appenders one by one and
// receives their data without their ever contending.
//
// Per the paper's accounting (§5.2-5.3), ROPA's control packets carry
// extra neighbor information, charged to overhead via the MacConfig
// control_info_* surcharge set by the factory.

#include <vector>

#include "mac/handshake_mac.hpp"

namespace aquamac {

class Ropa final : public HandshakeMac {
 public:
  using HandshakeMac::HandshakeMac;

  [[nodiscard]] std::string_view name() const override { return "ROPA"; }

  void visit_state(StateArchive& ar) override;

 protected:
  void overheard(const Frame& frame, const RxInfo& info) override;
  /// A fresh RTS opens a fresh appender window.
  void decorate_negotiation(Frame& frame) override;
  void backed_off() override { appenders_.clear(); }
  void handle_reset() override {
    appenders_.clear();
    HandshakeMac::handle_reset();
  }
  /// After our own Ack, grant the recorded appenders before going idle.
  void handshake_completed() override;
  void handle_extra_frame(const Frame& frame, const RxInfo& info) override;

 private:
  static constexpr State kWaitGrant{4};   ///< appender: RTA sent, awaiting the sender's grant
  static constexpr State kAppendData{5};  ///< appender: granted, data sent, awaiting ack
  static constexpr State kGranting{6};    ///< initiator: draining the recorded appender list

  /// Max appenders served per exchange (keeps the append train bounded).
  static constexpr std::size_t kMaxAppenders = 2;

  // --- appending: appender side (A) -------------------------------------
  void maybe_send_rta(const Frame& rts, const RxInfo& info);
  void on_grant(const Frame& frame);

  // --- appending: initiator side (S) -------------------------------------
  void grant_next();

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
