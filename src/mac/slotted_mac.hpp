#pragma once
// Base class for the slotted protocols (EW-MAC, S-FAMA, CW-MAC, slotted
// ALOHA, and our slotted adaptations of ROPA / CS-MAC).
//
// Slot arithmetic follows §4.1: |ts| = omega + tau_max, slot boundaries
// at integer multiples of |ts| from time zero (network-wide sync is
// assumed, §3.1). Negotiated packets start exactly on slot boundaries;
// the extra packets of EW-MAC deliberately do not.

#include <functional>

#include "mac/mac_protocol.hpp"

namespace aquamac {

class SlottedMac : public MacProtocol {
 public:
  using MacProtocol::MacProtocol;

  void visit_state(StateArchive& ar) override;

  /// |ts| = omega + tau_max (§4.1).
  [[nodiscard]] Duration slot_length() const { return omega() + config_.tau_max; }

  [[nodiscard]] std::int64_t slot_index(Time t) const {
    return (t - Time::zero()).divide_floor(slot_length());
  }
  [[nodiscard]] Time slot_start(std::int64_t index) const {
    return Time::zero() + slot_length() * index;
  }
  /// First slot boundary at or after `t`.
  [[nodiscard]] Time next_slot_boundary(Time t) const {
    const std::int64_t idx = slot_index(t);
    const Time start = slot_start(idx);
    return start == t ? start : slot_start(idx + 1);
  }
  /// Number of slots a DATA of `airtime` occupies from its sending slot
  /// until the Ack slot, per Eq. (5): ceil((TD + tau) / |ts|).
  [[nodiscard]] std::int64_t data_slots(Duration data_airtime, Duration tau) const {
    return (data_airtime + tau).divide_ceil(slot_length());
  }

 protected:
  /// Visits the slotted state, then `own` in one section named after the
  /// protocol in lower case ("ew-mac", "s-aloha", ...).
  void visit_protocol(StateArchive& ar, const std::function<void(StateArchive&)>& own);

  /// Defers own initiations until `t` (Quiet state). Monotone max.
  void set_quiet_until(Time t) {
    if (t > quiet_until_) quiet_until_ = t;
  }
  [[nodiscard]] bool quiet_now() const { return sim_.now() < quiet_until_; }
  [[nodiscard]] Time quiet_until() const { return quiet_until_; }

  /// Contention window after `retries` failures, in whole slots:
  /// min(cw_min << retries, cw_max).
  [[nodiscard]] std::uint64_t contention_window(std::uint32_t retries) const {
    const std::uint64_t cw = static_cast<std::uint64_t>(config_.cw_min_slots) << retries;
    return std::min<std::uint64_t>(cw, config_.cw_max_slots);
  }
  /// Binary-exponential backoff: uniform in [1, contention_window] slots.
  [[nodiscard]] std::int64_t backoff_slots(std::uint32_t retries) {
    return static_cast<std::int64_t>(rng_.below(contention_window(retries))) + 1;
  }

 private:
  Time quiet_until_{Time::zero()};
};

}  // namespace aquamac
