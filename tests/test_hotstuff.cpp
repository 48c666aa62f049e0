// Chained HotStuff behind the protocol axis: happy path, the pipeline's
// rotation edges (leader crash mid-chain, a certified-but-uncommitted
// batch surviving rotation, equivocation), and the linear-vs-quadratic
// message crossover against PBFT. Safety is asserted via log
// prefix-consistency, exactly as the PBFT suite does.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bft_test_util.h"
#include "replication/cluster.h"
#include "support/assert.h"

namespace findep::replication {
namespace {

ClusterOptions hotstuff_options(std::uint64_t seed = 1) {
  ClusterOptions opt;
  opt.network.min_latency = 0.005;
  opt.network.mean_extra_latency = 0.01;
  opt.replica.pacemaker_timeout = 0.5;
  opt.replica.batch_timeout = 0.05;
  opt.protocol = Protocol::kHotStuff;
  opt.seed = seed;
  return opt;
}

/// Honest replicas' pacemaker expiries, summed.
std::uint64_t total_timeouts(Cluster& cluster,
                             const std::vector<Behavior>& behaviors) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (i < behaviors.size() && behaviors[i] != Behavior::kHonest) continue;
    total += cluster.hotstuff(i).telemetry().disruptions;
  }
  return total;
}

TEST(HotStuff, HappyPathExecutesAndAgrees) {
  Cluster cluster(4, hotstuff_options());
  for (int i = 0; i < 5; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(5, 30.0));
  EXPECT_TRUE(cluster.logs_consistent());
  EXPECT_GT(cluster.mean_latency(), 0.0);
  // A clean run needs no pacemaker intervention, and no replica sees a
  // timeout or a round gap.
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const Telemetry t = cluster.hotstuff(i).telemetry();
    EXPECT_EQ(t.disruptions, 0u) << i;
    EXPECT_FALSE(t.observed_disruption) << i;
  }
}

class HotStuffSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HotStuffSizes, ExecutesAcrossClusterSizes) {
  Cluster cluster(GetParam(), hotstuff_options(GetParam()));
  for (int i = 0; i < 3; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(3, 60.0)) << GetParam();
  EXPECT_TRUE(cluster.logs_consistent());
}

INSTANTIATE_TEST_SUITE_P(Sizes, HotStuffSizes,
                         ::testing::Values(4, 7, 10));

TEST(HotStuff, LeaderCrashMidChainTimesOutOntoNextLeader) {
  // Commit a first wave, then crash a rotation slot outright. The next
  // leaders extend the highest QC across the dead replica's rounds: with
  // the two-chain rule a run of three consecutive live leaders commits,
  // and n = 4 with one crash always has one.
  Cluster cluster(4, hotstuff_options(7));
  for (int i = 0; i < 4; ++i) cluster.submit();
  ASSERT_TRUE(cluster.run_until_executed(4, 30.0));
  const SeqNum before = cluster.hotstuff(0).committed_height();
  ASSERT_GT(before, 0u);

  cluster.network().set_node_down(2, true);
  for (int i = 0; i < 6; ++i) cluster.submit();
  // All 10 requests execute on the live replicas despite the dead
  // rotation slot (replica 2's rounds burn a timeout each lap). The dead
  // replica itself can never catch up, so progress is asserted via
  // completed requests, not the all-honest-replicas bar.
  cluster.run_for(120.0);
  EXPECT_EQ(cluster.completed_requests(), 10u);
  EXPECT_TRUE(cluster.logs_consistent());
  bool timed_out = false;
  SeqNum after = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (i == 2) continue;
    timed_out |= cluster.hotstuff(i).telemetry().disruptions > 0;
    // Every live replica either expired a round of the dead slot or
    // heard another's timeout.
    EXPECT_TRUE(cluster.hotstuff(i).telemetry().observed_disruption) << i;
    after = std::max(after, cluster.hotstuff(i).committed_height());
  }
  EXPECT_TRUE(timed_out);
  EXPECT_GT(after, before);  // the chain kept extending past the crash
  expect_recorded_executions_match_logs(cluster);
}

TEST(HotStuff, CertifiedBatchSurvivesRotationAcrossPartition) {
  // Wedge a minority (two of seven, including upcoming leaders) behind a
  // partition while it still holds a pending batch: the majority side
  // keeps rotating and commits that batch without them, the wedge times
  // out round after round, and after the heal its stale timeouts (which
  // carry an outdated high-QC) draw a catch-up QC notice from the
  // quiescent majority — the batch the wedge was cut off from commits
  // for them too instead of forking or vanishing.
  Cluster cluster(7, hotstuff_options(11));
  for (int i = 0; i < 3; ++i) cluster.submit();
  ASSERT_TRUE(cluster.run_until_executed(3, 30.0));

  for (int i = 0; i < 6; ++i) cluster.submit();  // lands on every replica
  cluster.network().set_partition_group(1, 1);
  cluster.network().set_partition_group(2, 1);
  cluster.run_for(40.0);  // majority commits the batch; the wedge starves

  cluster.network().heal_partitions();
  EXPECT_TRUE(cluster.run_until_executed(9, 120.0));
  EXPECT_TRUE(cluster.logs_consistent());
  // Every replica — the wedged minority included — converged on the full
  // log (possibly via state transfer rather than block replay).
  EXPECT_EQ(cluster.completed_requests(), 9u);
  EXPECT_EQ(cluster.stranded_replicas(), 0u);
}

TEST(HotStuff, EquivocatingLeaderRejectedByQcRules) {
  // Replica 1 (leader of round 1) proposes conflicting blocks to the two
  // halves of the cluster. Honest votes split, neither digest reaches
  // quorum weight, the round times out onto the next leader — and no
  // forged request (ids carry the 2^63 marker bit) ever executes.
  std::vector<Behavior> behaviors(4, Behavior::kHonest);
  behaviors[1] = Behavior::kEquivocate;
  Cluster cluster(4, hotstuff_options(13), behaviors);
  for (int i = 0; i < 4; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(4, 90.0));
  EXPECT_TRUE(cluster.logs_consistent());
  EXPECT_GT(total_timeouts(cluster, behaviors), 0u);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (behaviors[i] != Behavior::kHonest) continue;
    for (const auto& entry : cluster.node(i).executed()) {
      EXPECT_EQ(entry.request.id & 0x8000000000000000ULL, 0u)
          << "forged request executed on replica " << i;
    }
  }
}

TEST(HotStuff, QcNoticeRepeatingOneVoteIsRejected) {
  // One valid vote repeated three times is not a quorum: a QC notice for
  // round 1000 built that way must leave the receiver's high-QC where it
  // was. The control, the same notice signed by three distinct voters,
  // is adopted.
  const ClusterOptions opt = hotstuff_options(19);
  Cluster cluster(4, opt);
  for (int i = 0; i < 3; ++i) cluster.submit();
  ASSERT_TRUE(cluster.run_until_executed(3, 30.0));
  cluster.run_for(5.0);  // drain: a quiescent cluster keeps no timer
  const QuorumCert before = cluster.hotstuff(3).high_qc();
  ASSERT_GT(before.round, 0u);

  // Keys derived exactly as the cluster derives them.
  const auto keys_of = [&opt](ReplicaId r) {
    return crypto::KeyPair::derive(opt.seed * 1000003 + r);
  };
  const auto notice_from = [&](const std::vector<ReplicaId>& voters) {
    QuorumCert qc{1000, before.height, before.block_digest, {}};
    const crypto::Digest digest =
        HsVote{qc.round, qc.height, qc.block_digest}.digest();
    for (const ReplicaId v : voters) {
      qc.votes.push_back(HsSignedVote{v, keys_of(v).sign(digest)});
    }
    return HsQcNotice{qc};
  };
  const crypto::KeyPair sender_keys = keys_of(1);
  const auto deliver = [&](const HsQcNotice& notice) {
    cluster.network().send(
        1, 3, net::Envelope(make_envelope(1, sender_keys, notice)),
        payload_wire_bytes(Payload{notice}));
    cluster.run_for(1.0);
  };

  deliver(notice_from({0, 0, 0}));
  EXPECT_EQ(cluster.hotstuff(3).high_qc().round, before.round);
  deliver(notice_from({0, 1, 2}));
  EXPECT_EQ(cluster.hotstuff(3).high_qc().round, 1000u);
}

TEST(HotStuff, WeightedQuorumFollowsReplicaOrderSums) {
  // Bft.WeightedQuorumFollowsPowerNotCount's fractional cluster on this
  // lane: the live voters {0, 1, 3} of weights {0.1, 0.1, 0.3, 0.4} form
  // a quorum summed in replica order (0.6000000000000001 > 0.6) and not
  // summed as 0, 3, 1 (exactly 0.6), so QC and timeout tallies must sum
  // in replica order for the cluster to commit.
  const std::vector<double> weights = {0.1, 0.1, 0.3, 0.4};
  std::vector<Behavior> behaviors(4, Behavior::kHonest);
  behaviors[2] = Behavior::kSilent;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ClusterOptions opt = fast_options(seed);
    opt.protocol = Protocol::kHotStuff;
    Cluster cluster(weights, opt, behaviors);
    for (int i = 0; i < 5; ++i) cluster.submit();
    EXPECT_TRUE(cluster.run_until_executed(5, 60.0)) << "seed " << seed;
    EXPECT_TRUE(cluster.logs_consistent()) << "seed " << seed;
  }
}

TEST(HotStuff, QcListsVotesInAscendingVoterOrder) {
  // Votes reach the collecting leader in arrival order; the QC it builds
  // lists them by voter, so every replica would build the same proof.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Cluster cluster(7, hotstuff_options(seed));
    for (int i = 0; i < 6; ++i) cluster.submit();
    ASSERT_TRUE(cluster.run_until_executed(6, 60.0)) << "seed " << seed;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      const std::vector<HsSignedVote>& votes =
          cluster.hotstuff(i).high_qc().votes;
      EXPECT_FALSE(votes.empty()) << "seed " << seed << " replica " << i;
      for (std::size_t k = 1; k < votes.size(); ++k) {
        EXPECT_LT(votes[k - 1].voter, votes[k].voter)
            << "seed " << seed << " replica " << i;
      }
    }
  }
}

TEST(HotStuff, LinearMessagingBeatsPbftQuadraticAtN25) {
  // The protocol-axis acceptance claim: per committed request, HotStuff's
  // vote-to-next-leader pattern costs O(n) messages where PBFT's
  // all-to-all prepare/commit costs O(n²). At n = 25 the gap is not
  // subtle.
  const std::size_t kN = 25;
  const int kRequests = 8;

  auto run = [&](Protocol protocol) {
    ClusterOptions opt = hotstuff_options(17);
    opt.protocol = protocol;
    Cluster cluster(kN, opt);
    for (int i = 0; i < kRequests; ++i) cluster.submit();
    EXPECT_TRUE(cluster.run_until_executed(kRequests, 120.0));
    EXPECT_TRUE(cluster.logs_consistent());
    return static_cast<double>(
               cluster.network().stats().messages_delivered) /
           static_cast<double>(cluster.completed_requests());
  };

  const double hotstuff = run(Protocol::kHotStuff);
  const double pbft = run(Protocol::kPbft);
  EXPECT_LT(hotstuff, pbft);
  // The crossover is structural, not marginal: expect at least 2x.
  EXPECT_LT(2.0 * hotstuff, pbft);
}

}  // namespace
}  // namespace findep::replication
