#include "mac/csmac/cs_mac.hpp"

#include <memory>

namespace aquamac {

void CsMac::decorate_negotiation(Frame& frame) {
  if (config_.two_hop_entries_shipped == 0 || neighbors_.size() == 0) return;
  auto info = std::make_shared<std::vector<NeighborInfo>>();
  for (const auto& [nid, entry] : neighbors_.entries()) {
    if (info->size() >= config_.two_hop_entries_shipped) break;
    info->push_back(NeighborInfo{nid, entry.delay});
  }
  frame.neighbor_info = std::move(info);
}

void CsMac::overheard(const Frame& frame, const RxInfo& info) {
  keep_quiet_for(frame, info, config_.tau_max);
  if (frame.type == FrameType::kCts) maybe_steal(frame, info);
}

// ---------------------------------------------------------------------
// Channel stealing
// ---------------------------------------------------------------------

void CsMac::maybe_steal(const Frame& negotiation, const RxInfo& info) {
  const Packet* packet = head();
  if (state() != State::kIdle || packet == nullptr) return;
  const NodeId target = packet->dst;
  if (target == negotiation.src || target == negotiation.dst) return;  // pair is busy
  const auto tau_im = neighbors_.delay_to(target);
  if (!tau_im) return;

  const Duration my_dur = data_airtime(packet->bits);
  const Duration tau_pair =
      negotiation.pair_delay.is_zero() ? config_.tau_max : negotiation.pair_delay;

  // The paper's CS-MAC premise: the data airtime must fit inside the
  // pair's propagation gap.
  if (my_dur + config_.guard + config_.guard > tau_pair) return;

  // The paper's CS-MAC rule: "send data packets directly after
  // determining that the packet will arrive at the receiver before the
  // negotiated packet". The negotiated DATA leaves the pair's sender at
  // the next slot boundary; if we know our target's delay from that
  // sender (two-hop state), our arrival must clear the data's arrival at
  // the target. Unknown delays are optimistically ignored, and no other
  // neighbor is consulted — CS-MAC's documented recklessness (§5.1).
  const Time launch = sim_.now() + config_.guard;
  const std::int64_t c = slot_index(info.arrival_begin);
  const Time data_tx = slot_start(c + 1);
  const Time arrival_begin = launch + *tau_im;
  const Time arrival_end = arrival_begin + my_dur;
  const NodeId data_sender = negotiation.dst;
  if (const auto tau_km = neighbors_.two_hop_delay(data_sender, target)) {
    const Time data_at_target = data_tx + *tau_km;
    if (arrival_end + config_.guard > data_at_target) return;
  }

  counters_.extra_attempts += 1;
  set_state(kStealing);
  const Packet packet_copy = *packet;
  const std::uint32_t bits = packet->bits;
  sim_.at(launch, [this, packet_copy, bits] {
    if (state() != kStealing || modem_.transmitting()) {
      if (state() == kStealing) {
        return_to_idle();
      }
      return;
    }
    transmit(make_data_for(FrameType::kExData, packet_copy));
    const Time deadline = sim_.now() + data_airtime(bits) + config_.tau_max +
                          config_.tau_max + omega() + slot_length();
    timeout_event_ = sim_.at(deadline, [this] {
      timeout_event_ = EventHandle{};
      if (state() == kStealing) {
        // The steal collided somewhere; fall back to normal contention.
        set_state(State::kIdle);
        retry_or_drop_head();
        if (head() != nullptr) schedule_attempt(0);
      }
    });
  });
}

void CsMac::handle_extra_frame(const Frame& frame, const RxInfo&) {
  switch (frame.type) {
    case FrameType::kExData: {
      // A stolen-channel data packet addressed to us: accept whenever we
      // are not mid-exchange; ack immediately in the stolen gap.
      if (state() != State::kIdle && state() != State::kWaitCts) break;
      deliver_data(frame);
      if (!modem_.transmitting()) {
        Frame ack = make_control(FrameType::kExAck, frame.src);
        ack.seq = frame.seq;
        transmit(ack);
      }
      break;
    }
    case FrameType::kExAck: {
      const Packet* packet = head();
      if (state() != kStealing || packet == nullptr || frame.src != packet->dst ||
          frame.seq != packet->id) {
        break;
      }
      sim_.cancel(timeout_event_);
      timeout_event_ = EventHandle{};
      complete_head_packet(/*via_extra=*/true);  // counts the extra success
      return_to_idle();
      break;
    }
    default:
      break;
  }
}

}  // namespace aquamac
