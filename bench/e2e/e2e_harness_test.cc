#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/e2e/harness.h"
#include "common/rng.h"

namespace fbstream::bench::e2e {
namespace {

TEST(PercentileTest, NearestRankNeverExceedsObservedMax) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> v(1 + rng.Uniform(50));
    double max = 0;
    for (double& x : v) {
      x = static_cast<double>(rng.Uniform(1'000'000));
      max = std::max(max, x);
    }
    for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      std::vector<double> copy = v;
      const double p = Percentile(&copy, q);
      EXPECT_LE(p, max);
      EXPECT_NE(std::find(v.begin(), v.end(), p), v.end());
    }
  }
}

TEST(PercentileTest, NearestRankValues) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(&v, 0.5), 50);
  EXPECT_EQ(Percentile(&v, 0.99), 99);
  EXPECT_EQ(Percentile(&v, 1.0), 100);
  EXPECT_EQ(Percentile(&v, 0.0), 1);
  std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 1000};
  EXPECT_EQ(Percentile(&ten, 0.99), 1000);
  std::vector<double> empty;
  EXPECT_EQ(Percentile(&empty, 0.5), 0);
}

TEST(PercentileTest, BinnedPercentileStaysInTheSampleBin) {
  // 1000 samples of microsecond-truncated latencies: 100 us x 600, 101 us x
  // 400. The median sample is 100 us; the binned median sits inside that
  // microsecond, 5/6 of the way through the 600 ties.
  std::vector<double> v(600, 100'000);
  v.insert(v.end(), 400, 101'000);
  const double p50 = BinnedPercentile(&v, 0.5, 1000);
  EXPECT_GE(p50, 100'000);
  EXPECT_LT(p50, 101'000);
  EXPECT_NEAR(p50, 100'000 + 1000 * (500 - 0.5) / 600, 1e-6);
  // The top of the distribution stays within the max sample's bin.
  EXPECT_LT(BinnedPercentile(&v, 1.0, 1000), 102'000);
  std::vector<double> empty;
  EXPECT_EQ(BinnedPercentile(&empty, 0.5, 1000), 0);
}

TEST(VisibilityLogTest, AppendAfterSnapshotIsChargedToNextPoll) {
  VisibilityLog log(2);
  // Poll 1 snapshots bucket 0 at 5 (seqs 0..4 present) and ends at t=100;
  // seq 5 is appended after the snapshot, so even if poll 1 applied it,
  // only poll 2 (snapshot 6, end t=200) proves it visible.
  log.Record(100, {5, 3});
  log.Record(150, {5, 3});  // Empty poll, no watermark moved: not stored.
  log.Record(200, {6, 3});
  log.Record(300, {6, 9});
  EXPECT_EQ(log.entries(), 3u);
  EXPECT_EQ(log.VisibleAt(0, 4), 100);
  EXPECT_EQ(log.VisibleAt(0, 5), 200);
  EXPECT_EQ(log.VisibleAt(1, 2), 100);
  EXPECT_EQ(log.VisibleAt(1, 3), 300);
  EXPECT_EQ(log.VisibleAt(0, 6), -1);  // No poll passed it yet.
}

TEST(PostGeneratorTest, DeterministicForASeed) {
  PostGenerator a(42, 0);
  PostGenerator b(42, 0);
  PostGenerator c(43, 0);
  int differ = 0;
  int empty = 0;
  for (int i = 0; i < 2000; ++i) {
    const Post pa = a.Next();
    const Post pb = b.Next();
    const Post pc = c.Next();
    EXPECT_EQ(pa.id, i);
    EXPECT_EQ(pa.hashtag, pb.hashtag);
    EXPECT_EQ(pa.age, pb.age);
    EXPECT_EQ(pa.text, pb.text);
    differ += pa.hashtag != pc.hashtag || pa.text != pc.text;
    empty += pa.hashtag < 0;
    EXPECT_LT(pa.hashtag, PostGenerator::kHashtags);
  }
  EXPECT_GT(differ, 1900);
  EXPECT_GT(empty, 100);  // ~10% are filtered out.
  EXPECT_LT(empty, 320);
}

TEST(OpenLoopTest, StalledWriteShowsInLaterEventsLatency) {
  constexpr double kRate = 10'000;  // One event every 100 us.
  constexpr int64_t kStallAt = 10;
  constexpr auto kStall = std::chrono::milliseconds(20);
  ProducerStats stats;
  const int64_t t0 = NowNanos() + 1'000'000;
  RunOpenLoop(
      t0, kRate, 0, 40,
      [&](int64_t i) {
        if (i == kStallAt) std::this_thread::sleep_for(kStall);
        return Status::OK();
      },
      &stats);
  ASSERT_EQ(stats.late_ns.size(), 40u);  // Nothing skipped.
  // Events after the stall were due during it: they went out late, so
  // their latency, counted from the due time, carries the stall.
  const size_t after = kStallAt + 1;
  EXPECT_LT(stats.late_ns[kStallAt], 5'000'000);
  EXPECT_GE(stats.late_ns[after], 18'000'000);
  // The backlog drains: later events catch up with the schedule.
  EXPECT_LT(stats.late_ns[39], stats.late_ns[after]);
}

}  // namespace
}  // namespace fbstream::bench::e2e
