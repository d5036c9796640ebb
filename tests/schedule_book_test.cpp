#include "mac/handshake.hpp"

#include <gtest/gtest.h>

namespace aquamac {
namespace {

TimeInterval interval(double begin_s, double end_s) {
  return TimeInterval{Time::from_seconds(begin_s), Time::from_seconds(end_s)};
}

TEST(ScheduleBook, PruneDropsPastWindows) {
  ScheduleBook book;
  book.add(1, interval(1.0, 2.0), BusyKind::kReceiving);
  book.add(1, interval(3.0, 4.0), BusyKind::kReceiving);
  book.add(2, interval(5.0, 6.0), BusyKind::kTransmitting);
  book.prune(Time::from_seconds(2.5));
  EXPECT_EQ(book.size(), 2u);
  book.prune(Time::from_seconds(4.0));
  EXPECT_EQ(book.size(), 1u) << "windows ending exactly at now are pruned";
}

TEST(ScheduleBook, ClearAndEmpty) {
  ScheduleBook book;
  EXPECT_TRUE(book.empty());
  book.add(1, interval(0.0, 1.0), BusyKind::kReceiving);
  EXPECT_FALSE(book.empty());
  book.clear();
  EXPECT_TRUE(book.empty());
}

TEST(ScheduleBook, ManyWindowsStressPrune) {
  ScheduleBook book;
  for (int i = 0; i < 1'000; ++i) {
    book.add(static_cast<NodeId>(i % 10), interval(i, i + 1), BusyKind::kReceiving);
  }
  book.prune(Time::from_seconds(500.0));
  EXPECT_EQ(book.size(), 500u);
  for (const ScheduleBook::Window& w : book.windows()) {
    EXPECT_GT(w.interval.end, Time::from_seconds(500.0)) << "windows below 500 s were pruned";
  }
  EXPECT_EQ(book.windows().front().interval.begin, Time::from_seconds(500.0))
      << "survivors keep their insertion order";
  EXPECT_EQ(book.windows()[203].neighbor, 3u) << "window [703, 704) belongs to neighbor 3";
}

}  // namespace
}  // namespace aquamac
