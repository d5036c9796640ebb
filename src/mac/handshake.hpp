#pragma once
// ScheduleBook: a node's prediction of when its neighbors will be busy.
//
// EW-MAC's extra communications are legal only when they "will not
// interfere with negotiated transmissions" (§4.2). A node builds that
// knowledge from overheard negotiation packets: an overheard RTS/CTS
// announces the pair delay and data airtime, from which the Eq.-5
// timeline of the whole exchange is predictable. The ScheduleBook stores
// the resulting busy windows per neighbor; the extra-phase feasibility
// checks query it before choosing EXR / EXDATA launch times.

#include <cstdint>
#include <vector>

#include "phy/frame.hpp"
#include "util/time.hpp"

namespace aquamac {

class StateArchive;

/// What the neighbor is predicted to be doing in the window.
enum class BusyKind : std::uint8_t {
  kReceiving,     ///< a negotiated packet arrives at the neighbor
  kTransmitting,  ///< the neighbor radiates a negotiated packet
};

class ScheduleBook {
 public:
  struct Window {
    NodeId neighbor;
    TimeInterval interval;
    BusyKind kind;

    void visit_state(StateArchive& ar);
  };

  void add(NodeId neighbor, TimeInterval interval, BusyKind kind) {
    windows_.push_back(Window{neighbor, interval, kind});
  }

  /// Drops windows that ended before `now`.
  void prune(Time now) {
    std::erase_if(windows_, [now](const Window& w) { return w.interval.end <= now; });
  }

  [[nodiscard]] const std::vector<Window>& windows() const { return windows_; }
  [[nodiscard]] bool empty() const { return windows_.empty(); }
  [[nodiscard]] std::size_t size() const { return windows_.size(); }
  void clear() { windows_.clear(); }

  /// Checkpoint encoding: windows verbatim, in vector order (the order is
  /// part of the deterministic state — EW-MAC scans front to back).
  void visit_state(StateArchive& ar);

 private:
  std::vector<Window> windows_;
};

}  // namespace aquamac
