// Primary flow control: the high-watermark window bounds how far
// next_seq_ may run ahead of the stable checkpoint. A burst that would
// outrun a tight window must be deferred (not dropped), resume as
// checkpoints advance, and never cost a view change; the default window
// must never bite in a healthy run.
#include <gtest/gtest.h>

#include <set>

#include "bft_test_util.h"
#include "support/assert.h"

namespace findep::replication {
namespace {

TEST(BftWatermark, BurstBeyondWindowDefersThenCommitsEverything) {
  // 20 requests against window 4 / checkpoint interval 2: the primary
  // may propose at most 4 slots beyond stability, so the burst must
  // back-pressure at least once, then drain as checkpoints certify.
  ClusterOptions opt = fast_options(61);
  opt.replica.checkpoint_interval = 2;
  opt.replica.high_watermark_window = 4;
  Cluster cluster(4, opt);
  for (int i = 0; i < 20; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(20, 60.0));
  EXPECT_TRUE(cluster.logs_consistent());

  std::set<std::uint64_t> want;
  for (std::uint64_t i = 1; i <= 20; ++i) want.insert(i);
  EXPECT_EQ(executed_ids(cluster.replica(2)), want);

  // The window bit (the whole point of the tight configuration)...
  EXPECT_GT(cluster.replica(0).telemetry().proposals_deferred, 0u);
  // ...but back-pressure is not a fault: nobody escalated to a view
  // change while the primary was waiting out its checkpoint quorum.
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(cluster.replica(r).view(), 0u);
    EXPECT_EQ(cluster.replica(r).telemetry().disruptions, 0u);
  }
}

TEST(BftWatermark, DefaultWindowNeverBitesInHealthyRun) {
  // The default window exists for pathological checkpoint stalls; a
  // normal burst must sail through with zero deferrals (and therefore
  // byte-identical sweep counters to the pre-watermark protocol).
  ClusterOptions opt = fast_options(62);
  Cluster cluster(4, opt);
  for (int i = 0; i < 24; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(24, 60.0));
  EXPECT_TRUE(cluster.logs_consistent());
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(cluster.replica(r).telemetry().proposals_deferred, 0u);
  }
}

TEST(BftWatermark, RejectsWindowTighterThanTwoCheckpointIntervals) {
  // Execution legitimately runs up to an interval ahead of stability;
  // a window below 2x would throttle a healthy primary.
  ClusterOptions opt = fast_options(63);
  opt.replica.checkpoint_interval = 4;
  opt.replica.high_watermark_window = 7;
  EXPECT_THROW(Cluster(4, opt), support::ContractViolation);
}

}  // namespace
}  // namespace findep::replication
