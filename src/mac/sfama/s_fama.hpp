#pragma once
// Slotted FAMA (Molins & Stojanovic 2006), as described in the paper's §5:
// time is slotted; RTS, CTS, DATA and Ack all start on slot boundaries; a
// node overhearing a control packet in slot t or t+1 keeps quiet for the
// whole (conservatively sized, tau_max-based) exchange. No reuse of idle
// waiting periods — this is the baseline every figure normalizes against,
// and it is the HandshakeMac cycle with no additions.

#include "mac/handshake_mac.hpp"

namespace aquamac {

class SFama final : public HandshakeMac {
 public:
  using HandshakeMac::HandshakeMac;

  [[nodiscard]] std::string_view name() const override { return "S-FAMA"; }

 protected:
  /// S-FAMA reserves a *maximal* propagation delay for every stage, so an
  /// overhearer keeps quiet through the conservative end of the exchange.
  void overheard(const Frame& frame, const RxInfo& info) override {
    keep_quiet_for(frame, info, config_.tau_max);
  }
  /// A receiver contends again at the very boundary of its Ack.
  [[nodiscard]] std::int64_t slots_after_data() const override { return 0; }
};

}  // namespace aquamac
