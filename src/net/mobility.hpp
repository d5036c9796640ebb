#pragma once
// Node mobility. The paper's §5: "the location models include non-moved,
// moved horizontal, or moved vertical. The location of each sensor is
// changed by randomly selecting one of these models" — water currents
// drift sensors slowly while the MAC keeps re-learning propagation delays
// from packet timestamps.

#include <cstdint>

#include "util/rng.hpp"
#include "util/time.hpp"
#include "util/vec3.hpp"

namespace aquamac {

class StateArchive;

enum class MobilityKind : std::uint8_t {
  kStatic,
  kHorizontalDrift,
  kVerticalDrift,
};

struct MobilityConfig {
  /// Drift speed magnitude (typical UASN current: ~0.3 m/s).
  double speed_mps{0.3};
  /// Region bounds for reflecting drifters.
  double width_m{4'000.0};
  double length_m{4'000.0};
  double depth_m{4'000.0};
  /// Position re-sampling period.
  Duration update_interval{Duration::seconds(5)};
};

/// Per-node kinematic state; advanced by the Network on a fixed cadence.
class Mobility {
 public:
  Mobility() = default;
  Mobility(MobilityKind kind, const MobilityConfig& config, Vec3 initial, Rng& rng);

  /// Picks one of the three paper models uniformly at random.
  [[nodiscard]] static MobilityKind random_kind(Rng& rng);

  [[nodiscard]] MobilityKind kind() const { return kind_; }
  [[nodiscard]] const Vec3& position() const { return position_; }

  /// Advances by dt, reflecting at the region boundary.
  void advance(Duration dt);

  /// Checkpoint encoding: kind, position and velocity (the config is
  /// scenario-derived and rebuilt by the resume path).
  void visit_state(StateArchive& ar);

 private:
  MobilityKind kind_{MobilityKind::kStatic};
  MobilityConfig config_{};  // lint: ckpt-skip(scenario-derived, rebuilt by resume)
  Vec3 position_{};
  Vec3 velocity_{};
};

}  // namespace aquamac
