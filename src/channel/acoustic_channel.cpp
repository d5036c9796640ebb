#include "channel/acoustic_channel.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>

#include "channel/absorption.hpp"

namespace aquamac {

namespace {

double effective_floor_for(const ChannelConfig& config, double noise_level_db) {
  return std::max(config.interference_floor_db,
                  noise_level_db - kNegligibleInterferenceMarginDb);
}

/// Max distance at which any attached modem can still register as
/// interference. kRangeBased bounds reach by configured range; kLevelBased
/// by inverting the link budget at the effective floor. Propagation path
/// length is >= the Euclidean chord (bellhop arcs bow outward), and TL is
/// monotone in length, so a Euclidean radius from the straight-line budget
/// conservatively covers curved-path reach too.
double interference_cutoff_for(const ChannelConfig& config, double effective_floor_db) {
  switch (config.mode) {
    case DeliveryMode::kRangeBased:
      return config.interference_range_m;
    case DeliveryMode::kLevelBased:
      return max_range_for_loss_db(config.source_level_db - effective_floor_db,
                                   config.freq_khz, config.spreading);
  }
  return config.interference_range_m;
}

}  // namespace

AcousticChannel::AcousticChannel(Simulator& sim, const PropagationModel& propagation,
                                 ChannelConfig config)
    : sim_{sim},
      propagation_{propagation},
      config_{config},
      noise_level_db_{aquamac::noise_level_db(config.freq_khz, config.bandwidth_hz,
                                              config.noise)},
      effective_floor_db_{effective_floor_for(config_, noise_level_db_)},
      interference_cutoff_m_{interference_cutoff_for(config_, effective_floor_db_)},
      spatial_index_{interference_cutoff_m_},
      workspaces_(1),
      path_cache_{propagation, config.freq_khz, config.enable_surface_echo} {
  if (config_.interference_range_m < config_.comm_range_m) {
    throw std::invalid_argument("interference_range_m must be >= comm_range_m");
  }
}

void AcousticChannel::reserve(std::size_t modem_count) {
  if (!attached_ids_.empty()) {
    throw std::logic_error("reserve() must precede the first attach()");
  }
  attached_ids_.reserve(modem_count);
  path_cache_.size_for(modem_count);
}

void AcousticChannel::attach(AcousticModem& modem) {
  // A modem attached twice repeats its own id, so one id check covers both.
  if (!attached_ids_.insert(modem.id()).second) {
    throw std::logic_error("modem attached twice / duplicate id");
  }
  modem.set_channel(this);
  spatial_index_.insert(modem);
}

void AcousticChannel::on_position_changed(const AcousticModem& modem) {
  spatial_index_.refresh(modem);
}

void AcousticChannel::start_transmission(const AcousticModem& sender, const Frame& frame,
                                         Duration airtime) {
  const PhaseScope phase{phase_hook_, SimPhase::kChannelDelivery};
  transmissions_.fetch_add(1, std::memory_order_relaxed);
  const Time now = sim_.now();
  TransmissionAudit audit{};
  const bool auditing = static_cast<bool>(audit_);
  if (auditing) {
    audit.sender = sender.id();
    audit.frame = frame;
    audit.tx_window = TimeInterval{now, now + airtime};
  }

  // One immutable copy of the frame shared by every per-receiver arrival
  // lambda (previously each lambda carried its own Frame copy).
  const auto shared_frame = std::make_shared<const Frame>(frame);

  // Candidate set: the 27-cell neighbourhood is a superset of every modem
  // within the interference cutoff, in attach order, so the reach
  // predicate below keeps exactly the modems a scan of every attached
  // modem would keep, in the same order. Each execution context owns its
  // workspace (prepare_parallel sizes the table before sharded runs start).
  const std::size_t ctx = sim_.context_index();
  assert(ctx < workspaces_.size() && "call prepare_parallel() after enable_sharding");
  Workspace& ws = workspaces_[ctx];
  spatial_index_.candidates(sender.position(), ws.candidates, ws.scratch);

  for (AcousticModem* receiver : ws.candidates) {
    if (receiver == &sender) continue;

    const PropagationModel::Path path = path_cache_.direct(sender, *receiver);
    const double rx_level = config_.source_level_db - path.loss_db;

    bool reaches = false;
    bool decodable = false;
    double threshold = config_.detection_threshold_db;
    switch (config_.mode) {
      case DeliveryMode::kRangeBased:
        reaches = path.length_m <= config_.interference_range_m;
        decodable = path.length_m <= config_.comm_range_m;
        // Encode decodability as a threshold the reception model applies:
        // in-range arrivals always clear it; out-of-range never do.
        threshold = decodable ? -1e9 : 1e9;
        break;
      case DeliveryMode::kLevelBased:
        reaches = rx_level >= effective_floor_db_;
        decodable = rx_level >= config_.detection_threshold_db;
        break;
    }
    if (!reaches) continue;

    const TimeInterval window{now + path.delay, now + path.delay + airtime};
    if (auditing) {
      audit.reaches.push_back({receiver->id(), window, rx_level, decodable});
    }
    // Arrivals execute on the *receiver's* lane: under sharding that routes
    // them to the receiver's shard queue (cross-shard pushes are covered by
    // the conservative lookahead, which lower-bounds path.delay).
    const std::uint32_t rx_lane = receiver->id() + 1;
    sim_.at_lane(rx_lane, window.begin, [receiver, shared_frame, rx_level, window,
                                         noise = noise_level_db_, threshold] {
      receiver->begin_arrival(*shared_frame, rx_level, window, noise, threshold);
    });

    // First-order surface echo (SINR physics only): a delayed, attenuated
    // replica that interferes but is never decodable.
    if (config_.enable_surface_echo && config_.mode == DeliveryMode::kLevelBased) {
      const PropagationModel::Path echo =
          path_cache_.surface_echo(sender, *receiver, config_.surface_reflection_loss_db);
      const double echo_level = config_.source_level_db - echo.loss_db;
      if (echo_level >= effective_floor_db_ && echo.delay > path.delay) {
        const TimeInterval echo_window{now + echo.delay, now + echo.delay + airtime};
        sim_.at_lane(rx_lane, echo_window.begin,
                     [receiver, shared_frame, echo_level, echo_window,
                      noise = noise_level_db_] {
                       receiver->begin_arrival(*shared_frame, echo_level, echo_window,
                                               noise,
                                               /*detection_threshold_db=*/1e9);
                     });
      }
    }
  }

  if (auditing) {
    // Inside a conservative window the audit sink is shared with other
    // shards; defer_ordered replays it at the barrier in exact serial
    // order. Outside (serial engine, coordinator), call through directly.
    if (sim_.in_parallel_region()) {
      sim_.defer_ordered([this, a = std::move(audit)] { audit_(a); });
    } else {
      audit_(audit);
    }
  }
}

}  // namespace aquamac
