#pragma once
// Brute-force reach oracle for AcousticChannel::start_transmission.
//
// The channel finds receivers through SpatialReceiverIndex and reads
// paths from PropagationCache. The oracle uses neither: installed as the
// channel audit of a serial run, it walks every node id in ascending
// order except the sender, computes the path from the current positions
// with AcousticChannel::path_between, and applies the delivery mode's
// reach predicate:
//   kRangeBased  reaches iff length <= interference_range_m,
//                decodable iff length <= comm_range_m;
//   kLevelBased  reaches iff level >= effective_interference_floor_db(),
//                decodable iff level >= detection_threshold_db.
// Each TransmissionAudit's reaches must equal that list exactly:
// receiver, window begin and end, level and decodability, in order.
//
// Serial runs only: a sharded run replays audits at the window barrier,
// when positions may already have moved on.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "channel/acoustic_channel.hpp"
#include "net/network.hpp"

namespace aquamac {

class ReachOracle {
 public:
  /// Installs the oracle as `network`'s channel audit (replacing any).
  explicit ReachOracle(Network& network) : network_{network} {
    network.channel().set_audit([this](const TransmissionAudit& audit) { check(audit); });
  }

  ReachOracle(const ReachOracle&) = delete;
  ReachOracle& operator=(const ReachOracle&) = delete;

  /// Transmissions checked so far.
  [[nodiscard]] std::uint64_t audits() const { return audits_; }
  /// Transmissions whose reaches differed from the brute-force list.
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }
  /// Description of the first mismatch; empty while there is none.
  [[nodiscard]] const std::string& first_mismatch() const { return first_mismatch_; }

 private:
  void check(const TransmissionAudit& audit) {
    audits_ += 1;
    const std::vector<TransmissionAudit::Reach> expected = brute_force(audit);
    std::string why;
    if (expected.size() != audit.reaches.size()) {
      why = "receiver count " + std::to_string(audit.reaches.size()) + ", oracle " +
            std::to_string(expected.size());
    }
    for (std::size_t i = 0; why.empty() && i < expected.size(); ++i) {
      const TransmissionAudit::Reach& got = audit.reaches[i];
      const TransmissionAudit::Reach& want = expected[i];
      if (got.receiver != want.receiver || got.window.begin != want.window.begin ||
          got.window.end != want.window.end || got.rx_level_db != want.rx_level_db ||
          got.decodable != want.decodable) {
        std::ostringstream os;
        os.precision(17);
        os << "reach " << i << ": channel (rx " << got.receiver << ", "
           << got.window.begin.to_string() << ".." << got.window.end.to_string() << ", "
           << got.rx_level_db << " dB, decodable " << got.decodable << "), oracle (rx "
           << want.receiver << ", " << want.window.begin.to_string() << ".."
           << want.window.end.to_string() << ", " << want.rx_level_db << " dB, decodable "
           << want.decodable << ")";
        why = os.str();
      }
    }
    if (why.empty()) return;
    if (mismatches_ == 0) {
      first_mismatch_ = "transmission " + std::to_string(audits_) + " by node " +
                        std::to_string(audit.sender) + " at " +
                        audit.tx_window.begin.to_string() + ": " + why;
    }
    mismatches_ += 1;
  }

  [[nodiscard]] std::vector<TransmissionAudit::Reach> brute_force(
      const TransmissionAudit& audit) const {
    const AcousticChannel& channel = network_.channel();
    const ChannelConfig& config = channel.config();
    const Duration airtime = audit.tx_window.end - audit.tx_window.begin;
    const Vec3 from = network_.node(audit.sender).modem().position();
    std::vector<TransmissionAudit::Reach> reaches;
    for (NodeId id = 0; id < network_.node_count(); ++id) {
      if (id == audit.sender) continue;
      const PropagationModel::Path path =
          channel.path_between(from, network_.node(id).modem().position());
      const double level = config.source_level_db - path.loss_db;
      bool reaches_rx = false;
      bool decodable = false;
      switch (config.mode) {
        case DeliveryMode::kRangeBased:
          reaches_rx = path.length_m <= config.interference_range_m;
          decodable = path.length_m <= config.comm_range_m;
          break;
        case DeliveryMode::kLevelBased:
          reaches_rx = level >= channel.effective_interference_floor_db();
          decodable = level >= config.detection_threshold_db;
          break;
      }
      if (!reaches_rx) continue;
      const Time begin = audit.tx_window.begin + path.delay;
      reaches.push_back({id, TimeInterval{begin, begin + airtime}, level, decodable});
    }
    return reaches;
  }

  Network& network_;
  std::uint64_t audits_{0};
  std::uint64_t mismatches_{0};
  std::string first_mismatch_;
};

}  // namespace aquamac
