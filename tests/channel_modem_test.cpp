#include "channel/acoustic_channel.hpp"
#include "phy/modem.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace aquamac {
namespace {

struct RecordingListener final : ModemListener {
  struct Rx {
    Frame frame;
    RxInfo info;
  };
  std::vector<Rx> received;
  std::vector<std::pair<Frame, RxOutcome>> failures;
  std::vector<Frame> completed_tx;

  void on_frame_received(const Frame& frame, const RxInfo& info) override {
    received.push_back({frame, info});
  }
  void on_rx_failure(const Frame& frame, RxOutcome outcome, const RxInfo&) override {
    failures.emplace_back(frame, outcome);
  }
  void on_tx_done(const Frame& frame) override { completed_tx.push_back(frame); }
};

class ChannelModemTest : public ::testing::Test {
 protected:
  ChannelModemTest()
      : propagation_{1'500.0}, channel_{sim_, propagation_, ChannelConfig{}} {}

  AcousticModem& add_modem(NodeId id, Vec3 position) {
    auto modem = std::make_unique<AcousticModem>(sim_, id, ModemConfig{}, reception_,
                                                 Rng{1'000 + id});
    modem->set_position(position);
    auto listener = std::make_unique<RecordingListener>();
    modem->set_listener(listener.get());
    channel_.attach(*modem);
    listeners_.push_back(std::move(listener));
    modems_.push_back(std::move(modem));
    return *modems_.back();
  }

  RecordingListener& listener(std::size_t i) { return *listeners_[i]; }

  static Frame control_frame(NodeId dst) {
    Frame frame{};
    frame.type = FrameType::kRts;
    frame.dst = dst;
    frame.size_bits = 64;
    return frame;
  }

  Simulator sim_;
  StraightLinePropagation propagation_;
  DeterministicCollisionModel reception_;
  AcousticChannel channel_;
  std::vector<std::unique_ptr<AcousticModem>> modems_;
  std::vector<std::unique_ptr<RecordingListener>> listeners_;
};

TEST_F(ChannelModemTest, DeliversWithExactPropagationDelay) {
  auto& a = add_modem(0, Vec3{0, 0, 0});
  add_modem(1, Vec3{1'500, 0, 0});
  a.transmit(control_frame(1));
  sim_.run();

  ASSERT_EQ(listener(1).received.size(), 1u);
  const auto& rx = listener(1).received[0];
  // 1.5 km at 1.5 km/s = 1 s propagation; 64 bits at 12 kbps = 5.33 ms.
  EXPECT_NEAR(rx.info.arrival_begin.to_seconds(), 1.0, 1e-9);
  EXPECT_NEAR(rx.info.measured_delay.to_seconds(), 1.0, 1e-9);
  EXPECT_NEAR((rx.info.arrival_end - rx.info.arrival_begin).to_seconds(), 64.0 / 12'000.0,
              1e-9);
  EXPECT_EQ(rx.frame.src, 0u);
}

TEST_F(ChannelModemTest, TxDoneFiresAtAirtimeEnd) {
  auto& a = add_modem(0, Vec3{0, 0, 0});
  add_modem(1, Vec3{100, 0, 0});
  Frame data{};
  data.type = FrameType::kData;
  data.dst = 1;
  data.size_bits = 2'048;
  data.data_bits = 2'048;
  a.transmit(data);
  EXPECT_TRUE(a.transmitting());
  sim_.run();
  ASSERT_EQ(listener(0).completed_tx.size(), 1u);
  EXPECT_FALSE(a.transmitting());
  EXPECT_NEAR(sim_.now().to_seconds(), 2'048.0 / 12'000.0 + 100.0 / 1'500.0, 1e-9);
}

TEST_F(ChannelModemTest, OverlappingArrivalsCollideAtReceiver) {
  auto& a = add_modem(0, Vec3{0, 0, 0});
  auto& b = add_modem(1, Vec3{200, 0, 0});
  add_modem(2, Vec3{100, 0, 0});  // equidistant-ish receiver
  // Both transmit simultaneously; both arrivals overlap at node 2.
  a.transmit(control_frame(2));
  b.transmit(control_frame(2));
  sim_.run();

  EXPECT_TRUE(listener(2).received.empty());
  EXPECT_EQ(listener(2).failures.size(), 2u);
  EXPECT_EQ(listener(2).failures[0].second, RxOutcome::kCollision);
}

TEST_F(ChannelModemTest, StaggeredSameSlotArrivalsBothSucceed) {
  // The EW-MAC §3.1 premise: two RTSs sent in the same slot usually do
  // NOT overlap at the receiver because propagation delays differ.
  auto& a = add_modem(0, Vec3{0, 0, 0});       // 1.0 km -> 0.667 s
  auto& b = add_modem(1, Vec3{2'000, 0, 0});   // 1.0 km from receiver
  add_modem(2, Vec3{1'000, 0, 0});
  a.transmit(control_frame(2));
  // b transmits 100 ms later: arrivals are disjoint (airtime 5.3 ms).
  sim_.at(Time::from_seconds(0.1), [&] { b.transmit(control_frame(2)); });
  sim_.run();
  EXPECT_EQ(listener(2).received.size(), 2u);
  EXPECT_TRUE(listener(2).failures.empty());
}

TEST_F(ChannelModemTest, HalfDuplexTransmitterCannotReceive) {
  auto& a = add_modem(0, Vec3{0, 0, 0});
  auto& b = add_modem(1, Vec3{750, 0, 0});
  // a sends a long data frame; b sends a control packet that arrives at a
  // while a is still radiating (data airtime 170 ms > 2*prop 1 s? no —
  // use a longer frame: 12000 bits = 1 s airtime, prop 0.5 s).
  Frame data{};
  data.type = FrameType::kData;
  data.dst = 1;
  data.size_bits = 12'000;
  data.data_bits = 12'000;
  a.transmit(data);
  b.transmit(control_frame(0));  // arrives at a at t=0.5s < 1s tx end
  sim_.run();
  ASSERT_EQ(listener(0).failures.size(), 1u);
  EXPECT_EQ(listener(0).failures[0].second, RxOutcome::kHalfDuplexLoss);
  EXPECT_TRUE(listener(0).received.empty());
}

TEST_F(ChannelModemTest, TransmitWhileTransmittingThrows) {
  auto& a = add_modem(0, Vec3{0, 0, 0});
  add_modem(1, Vec3{100, 0, 0});
  a.transmit(control_frame(1));
  EXPECT_THROW(a.transmit(control_frame(1)), std::logic_error);
}

TEST_F(ChannelModemTest, ZeroSizeFrameRejected) {
  auto& a = add_modem(0, Vec3{0, 0, 0});
  Frame frame = control_frame(1);
  frame.size_bits = 0;
  EXPECT_THROW(a.transmit(frame), std::logic_error);
}

TEST_F(ChannelModemTest, UnattachedModemRejectsTransmit) {
  AcousticModem lone{sim_, 99, ModemConfig{}, reception_, Rng{9}};
  EXPECT_THROW(lone.transmit(control_frame(0)), std::logic_error);
}

TEST_F(ChannelModemTest, OutOfRangeNodesHearNothing) {
  auto& a = add_modem(0, Vec3{0, 0, 0});
  add_modem(1, Vec3{1'600, 0, 0});  // beyond the 1.5 km comm range
  a.transmit(control_frame(1));
  sim_.run();
  EXPECT_TRUE(listener(1).received.empty());
  EXPECT_TRUE(listener(1).failures.empty());
}

TEST_F(ChannelModemTest, DuplicateAttachRejected) {
  auto& a = add_modem(0, Vec3{0, 0, 0});
  EXPECT_THROW(channel_.attach(a), std::logic_error);
}

TEST_F(ChannelModemTest, DuplicateIdAttachRejected) {
  add_modem(0, Vec3{0, 0, 0});
  AcousticModem twin{sim_, 0, ModemConfig{}, reception_, Rng{7}};
  EXPECT_THROW(channel_.attach(twin), std::logic_error);
  EXPECT_EQ(channel_.modem_count(), 1u);
}

TEST_F(ChannelModemTest, ReserveAfterAttachRejected) {
  add_modem(0, Vec3{0, 0, 0});
  EXPECT_THROW(channel_.reserve(4), std::logic_error);
}

TEST_F(ChannelModemTest, AuditSeesEveryReach) {
  std::vector<TransmissionAudit> audits;
  channel_.set_audit([&](const TransmissionAudit& audit) { audits.push_back(audit); });
  auto& a = add_modem(0, Vec3{0, 0, 0});
  add_modem(1, Vec3{700, 0, 0});
  add_modem(2, Vec3{1'400, 0, 0});
  add_modem(3, Vec3{5'000, 0, 0});  // unreachable
  a.transmit(control_frame(1));
  sim_.run();

  ASSERT_EQ(audits.size(), 1u);
  EXPECT_EQ(audits[0].sender, 0u);
  ASSERT_EQ(audits[0].reaches.size(), 2u) << "only in-range modems are reached";
  for (const auto& reach : audits[0].reaches) {
    EXPECT_TRUE(reach.decodable);
    EXPECT_GT(reach.window.begin, audits[0].tx_window.begin);
  }
}

TEST_F(ChannelModemTest, EnergyMeterTracksTxAndRxTime) {
  auto& a = add_modem(0, Vec3{0, 0, 0});
  add_modem(1, Vec3{300, 0, 0});
  Frame data{};
  data.type = FrameType::kData;
  data.dst = 1;
  data.size_bits = 12'000;  // exactly 1 s of airtime
  data.data_bits = 12'000;
  a.transmit(data);
  sim_.run();
  EXPECT_NEAR(a.energy().tx_time().to_seconds(), 1.0, 1e-9);
  EXPECT_NEAR(modems_[1]->energy().rx_time().to_seconds(), 1.0, 1e-9);
  EXPECT_EQ(a.energy().rx_time(), Duration::zero());
}

TEST_F(ChannelModemTest, InterferenceBeyondCommRange) {
  // With interference_range > comm_range, a distant transmitter cannot be
  // decoded but still destroys concurrent receptions (hidden terminal).
  ChannelConfig config{};
  config.comm_range_m = 1'500.0;
  config.interference_range_m = 3'000.0;
  AcousticChannel channel{sim_, propagation_, config};

  auto make = [&](NodeId id, Vec3 pos) {
    auto modem =
        std::make_unique<AcousticModem>(sim_, id, ModemConfig{}, reception_, Rng{id});
    modem->set_position(pos);
    auto listener = std::make_unique<RecordingListener>();
    modem->set_listener(listener.get());
    channel.attach(*modem);
    listeners_.push_back(std::move(listener));
    modems_.push_back(std::move(modem));
    return modems_.size() - 1;
  };
  const auto a = make(10, Vec3{0, 0, 0});
  const auto r = make(11, Vec3{1'000, 0, 0});
  const auto far = make(12, Vec3{3'000, 0, 0});  // 2 km from r: jams, undecodable

  Frame data{};
  data.type = FrameType::kData;
  data.dst = 11;
  data.size_bits = 12'000;
  data.data_bits = 12'000;
  modems_[a]->transmit(data);
  modems_[far]->transmit(control_frame(11));
  sim_.run();

  EXPECT_TRUE(listeners_[r]->received.empty()) << "jammed by out-of-range interferer";
  ASSERT_FALSE(listeners_[r]->failures.empty());
  EXPECT_EQ(listeners_[r]->failures[0].second, RxOutcome::kCollision);
}

TEST_F(ChannelModemTest, BadChannelConfigRejected) {
  ChannelConfig config{};
  config.comm_range_m = 2'000.0;
  config.interference_range_m = 1'000.0;
  EXPECT_THROW((AcousticChannel{sim_, propagation_, config}), std::invalid_argument);
}

}  // namespace
}  // namespace aquamac
