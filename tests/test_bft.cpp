// PBFT: normal case, crash & Byzantine faults, view changes, weighted
// quorums, checkpointing. Safety is asserted via log prefix-consistency.
#include <gtest/gtest.h>

#include "bft_test_util.h"
#include "support/assert.h"
#include "support/rng.h"

namespace findep::replication {
namespace {

TEST(Bft, HappyPathExecutesAndAgrees) {
  Cluster cluster(4, fast_options());
  for (int i = 0; i < 5; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(5, 30.0));
  EXPECT_TRUE(cluster.logs_consistent());
  EXPECT_EQ(cluster.replica(0).view(), 0u);  // no view change needed
  EXPECT_GT(cluster.mean_latency(), 0.0);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const Telemetry t = cluster.replica(i).telemetry();
    EXPECT_EQ(t.disruptions, 0u) << i;
    EXPECT_FALSE(t.observed_disruption) << i;
  }
}

TEST(Bft, RejectsTooSmallCluster) {
  EXPECT_THROW(Cluster(3, fast_options()), support::ContractViolation);
}

class BftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BftSizes, ExecutesAcrossClusterSizes) {
  Cluster cluster(GetParam(), fast_options(GetParam()));
  for (int i = 0; i < 3; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(3, 60.0)) << GetParam();
  EXPECT_TRUE(cluster.logs_consistent());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BftSizes,
                         ::testing::Values(4, 5, 7, 10, 13, 16));

TEST(Bft, ToleratesSilentBackupReplica) {
  // n = 4 tolerates f = 1; replica 2 (a backup) is silent.
  std::vector<Behavior> behaviors(4, Behavior::kHonest);
  behaviors[2] = Behavior::kSilent;
  Cluster cluster(4, fast_options(2), behaviors);
  for (int i = 0; i < 5; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(5, 30.0));
  EXPECT_TRUE(cluster.logs_consistent());
}

TEST(Bft, SilentPrimaryTriggersViewChangeAndRecovers) {
  std::vector<Behavior> behaviors(4, Behavior::kHonest);
  behaviors[0] = Behavior::kSilent;  // primary of view 0
  Cluster cluster(4, fast_options(3), behaviors);
  for (int i = 0; i < 3; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(3, 60.0));
  EXPECT_TRUE(cluster.logs_consistent());
  // Some honest replica moved past view 0, and every honest one saw the
  // view change: the campaign's detection evidence.
  bool advanced = false;
  for (std::size_t i = 1; i < 4; ++i) {
    advanced |= cluster.replica(i).view() > 0;
    EXPECT_TRUE(cluster.replica(i).telemetry().observed_disruption) << i;
  }
  EXPECT_TRUE(advanced);
}

TEST(Bft, EquivocatingPrimaryCannotViolateSafety) {
  std::vector<Behavior> behaviors(4, Behavior::kHonest);
  behaviors[0] = Behavior::kEquivocate;
  Cluster cluster(4, fast_options(4), behaviors);
  for (int i = 0; i < 3; ++i) cluster.submit();
  // Progress resumes after the view change evicts the equivocator.
  EXPECT_TRUE(cluster.run_until_executed(3, 90.0));
  EXPECT_TRUE(cluster.logs_consistent());
}

TEST(Bft, TwoSilentInSevenTolerated) {
  // n = 7 tolerates f = 2.
  std::vector<Behavior> behaviors(7, Behavior::kHonest);
  behaviors[3] = Behavior::kSilent;
  behaviors[5] = Behavior::kSilent;
  Cluster cluster(7, fast_options(5), behaviors);
  for (int i = 0; i < 4; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(4, 60.0));
  EXPECT_TRUE(cluster.logs_consistent());
}

TEST(Bft, CascadedPrimaryFailuresEventuallyRecover) {
  // Primaries of views 0 and 1 both silent: two view changes needed.
  std::vector<Behavior> behaviors(7, Behavior::kHonest);
  behaviors[0] = Behavior::kSilent;
  behaviors[1] = Behavior::kSilent;
  Cluster cluster(7, fast_options(6), behaviors);
  for (int i = 0; i < 2; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(2, 120.0));
  EXPECT_TRUE(cluster.logs_consistent());
  bool reached_view2 = false;
  for (std::size_t i = 0; i < 7; ++i) {
    reached_view2 |= cluster.replica(i).view() >= 2;
  }
  EXPECT_TRUE(reached_view2);
}

TEST(Bft, BeyondThresholdStallsButStaysSafe) {
  // n = 4 with 2 silent replicas (> f): no progress, but no divergence.
  std::vector<Behavior> behaviors(4, Behavior::kHonest);
  behaviors[1] = Behavior::kSilent;
  behaviors[2] = Behavior::kSilent;
  Cluster cluster(4, fast_options(7), behaviors);
  cluster.submit();
  EXPECT_FALSE(cluster.run_until_executed(1, 20.0));
  EXPECT_TRUE(cluster.logs_consistent());
  EXPECT_EQ(cluster.min_honest_executed(), 0u);
}

TEST(Bft, WeightedQuorumFollowsPowerNotCount) {
  // 5 replicas; replica 0 holds 60% of the power and is silent: the rest
  // hold only 40% < 2/3 — no progress possible (safety bound is weighted).
  std::vector<double> weights = {6.0, 1.0, 1.0, 1.0, 1.0};
  std::vector<Behavior> behaviors(5, Behavior::kHonest);
  behaviors[0] = Behavior::kSilent;
  Cluster heavy(weights, fast_options(8), behaviors);
  heavy.submit();
  EXPECT_FALSE(heavy.run_until_executed(1, 20.0));

  // Same weights but a *light* replica fails: 9/10 > 2/3 remains.
  std::vector<Behavior> light_fail(5, Behavior::kHonest);
  light_fail[4] = Behavior::kSilent;
  Cluster light(weights, fast_options(9), light_fail);
  for (int i = 0; i < 3; ++i) light.submit();
  EXPECT_TRUE(light.run_until_executed(3, 30.0));
  EXPECT_TRUE(light.logs_consistent());

  // Fractional weights where the summation order decides the quorum:
  // the live voters {0, 1, 3} hold 0.6000000000000001 summed in replica
  // order, more than 2/3 of 0.9, but exactly 0.6 summed as 0, 3, 1.
  // Every vote tally sums in replica order, so each seed commits.
  const std::vector<double> fractional = {0.1, 0.1, 0.3, 0.4};
  std::vector<Behavior> third_silent(4, Behavior::kHonest);
  third_silent[2] = Behavior::kSilent;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Cluster cluster(fractional, fast_options(seed), third_silent);
    for (int i = 0; i < 5; ++i) cluster.submit();
    EXPECT_TRUE(cluster.run_until_executed(5, 60.0)) << "seed " << seed;
    EXPECT_TRUE(cluster.logs_consistent()) << "seed " << seed;
  }
}

TEST(Bft, VoteTallySumsInReplicaOrder) {
  // 130 replicas: the voters span three 64-bit words.
  constexpr std::size_t kN = 130;
  support::Rng rng(23);
  std::vector<double> weights(kN);
  for (double& w : weights) w = rng.uniform(0.01, 1.0);
  std::vector<ReplicaId> arrival;
  for (ReplicaId r = 0; r < kN; ++r) {
    if (r % 7 != 0) arrival.push_back(r);  // multiples of 7 never vote
  }
  rng.shuffle(arrival);

  VoteTally tally(kN);
  double arrival_sum = 0.0;
  for (const ReplicaId r : arrival) {
    EXPECT_FALSE(tally.add(r)) << r;
    arrival_sum += weights[r];
  }
  double id_sum = 0.0;
  for (ReplicaId r = 0; r < kN; ++r) {
    EXPECT_EQ(tally.contains(r), r % 7 != 0) << r;
    if (r % 7 != 0) id_sum += weights[r];
  }
  // The two orders round differently here, so the check below can tell
  // them apart.
  ASSERT_NE(arrival_sum, id_sum);
  EXPECT_EQ(tally.weight(weights), id_sum);

  // A repeated vote is reported and changes nothing.
  EXPECT_TRUE(tally.add(arrival.front()));
  EXPECT_TRUE(tally.add(129));
  EXPECT_EQ(tally.weight(weights), id_sum);
  EXPECT_FALSE(tally.contains(kN));
}

TEST(Bft, CheckpointsPruneAndStabilize) {
  ClusterOptions opt = fast_options(10);
  opt.replica.checkpoint_interval = 4;
  Cluster cluster(4, opt);
  for (int i = 0; i < 10; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(10, 60.0));
  cluster.run_for(5.0);  // let checkpoint votes settle
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(cluster.replica(i).stable_checkpoint(), 4u) << i;
  }
  EXPECT_TRUE(cluster.logs_consistent());
}

TEST(Bft, MessageComplexityGrowsSuperlinearly) {
  const auto messages_for = [](std::size_t n) {
    Cluster cluster(n, fast_options(11));
    for (int i = 0; i < 3; ++i) cluster.submit();
    EXPECT_TRUE(cluster.run_until_executed(3, 60.0));
    return cluster.network().stats().messages_sent;
  };
  const auto small = messages_for(4);
  const auto large = messages_for(8);
  // Quadratic phases: 2x replicas should cost clearly more than 2x
  // messages.
  EXPECT_GT(static_cast<double>(large),
            2.5 * static_cast<double>(small));
}

TEST(Bft, ExecutedSequencesAreDense) {
  Cluster cluster(4, fast_options(12));
  for (int i = 0; i < 6; ++i) cluster.submit();
  ASSERT_TRUE(cluster.run_until_executed(6, 30.0));
  const auto& log = cluster.replica(1).executed();
  for (std::size_t j = 0; j < log.size(); ++j) {
    EXPECT_EQ(log[j].seq, j + 1);
  }
}

TEST(Bft, DuplicateClientSubmissionsExecuteOnce) {
  Cluster cluster(4, fast_options(13));
  cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(1, 30.0));
  const std::size_t before = cluster.replica(0).executed().size();
  // The client's request went to all four replicas; each forwarded it to
  // the primary. Still exactly one execution.
  cluster.run_for(5.0);
  EXPECT_EQ(cluster.replica(0).executed().size(), before);
}

TEST(Bft, LatencyScalesWithNetworkDelay) {
  ClusterOptions fast = fast_options(14);
  ClusterOptions slow = fast_options(14);
  slow.network.min_latency = 0.2;
  Cluster a(4, fast), b(4, slow);
  a.submit();
  b.submit();
  ASSERT_TRUE(a.run_until_executed(1, 30.0));
  ASSERT_TRUE(b.run_until_executed(1, 30.0));
  EXPECT_LT(a.mean_latency(), b.mean_latency());
}

}  // namespace
}  // namespace findep::replication
