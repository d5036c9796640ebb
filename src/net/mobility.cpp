#include "net/mobility.hpp"

#include <cmath>
#include <numbers>

#include "sim/checkpoint.hpp"

namespace aquamac {

MobilityKind Mobility::random_kind(Rng& rng) {
  switch (rng.below(3)) {
    case 0: return MobilityKind::kStatic;
    case 1: return MobilityKind::kHorizontalDrift;
    default: return MobilityKind::kVerticalDrift;
  }
}

Mobility::Mobility(MobilityKind kind, const MobilityConfig& config, Vec3 initial, Rng& rng)
    : kind_{kind}, config_{config}, position_{initial} {
  switch (kind_) {
    case MobilityKind::kStatic:
      break;
    case MobilityKind::kHorizontalDrift: {
      const double heading = rng.uniform(0.0, 2.0 * std::numbers::pi);
      velocity_ = Vec3{config_.speed_mps * std::cos(heading),
                       config_.speed_mps * std::sin(heading), 0.0};
      break;
    }
    case MobilityKind::kVerticalDrift:
      velocity_ = Vec3{0.0, 0.0, rng.bernoulli(0.5) ? config_.speed_mps : -config_.speed_mps};
      break;
  }
}

namespace {
/// Reflects `value` (and flips `velocity`) off [0, bound].
void reflect(double& value, double& velocity, double bound) {
  if (value < 0.0) {
    value = -value;
    velocity = -velocity;
  } else if (value > bound) {
    value = 2.0 * bound - value;
    velocity = -velocity;
  }
}
}  // namespace

void Mobility::advance(Duration dt) {
  if (kind_ == MobilityKind::kStatic) return;
  position_ += velocity_ * dt.to_seconds();
  reflect(position_.x, velocity_.x, config_.width_m);
  reflect(position_.y, velocity_.y, config_.length_m);
  reflect(position_.z, velocity_.z, config_.depth_m);
}

void Mobility::visit_state(StateArchive& ar) {
  ar.as<std::uint8_t>(kind_);
  ar(position_, velocity_);
}

}  // namespace aquamac
