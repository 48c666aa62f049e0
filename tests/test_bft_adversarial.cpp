// Adversarial and edge-case PBFT tests: network-level attacks (partition,
// targeted delay/drop), forged protocol messages, weighted equivocators,
// and recovery dynamics beyond the happy paths of test_bft.cpp.
#include <gtest/gtest.h>

#include "bft_test_util.h"
#include "support/assert.h"

namespace findep::replication {
namespace {

/// Real (non-noop) executions of one replica.
std::size_t real_executed(const Pbft& replica) {
  std::size_t count = 0;
  for (const ExecutedEntry& e : replica.executed()) {
    if (e.request.id != 0) ++count;
  }
  return count;
}

/// Number of replicas that executed at least `target` real requests.
std::size_t replicas_at(const Cluster& cluster, std::size_t target) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (real_executed(cluster.replica(i)) >= target) ++count;
  }
  return count;
}

TEST(BftAdversarial, PartitionStallsThenHeals) {
  Cluster cluster(4, fast_options(21));
  // Cut replica 3 off; the 3 connected replicas still form a quorum and
  // make progress; the partitioned one cannot (no state transfer).
  cluster.network().set_partition_group(3, 1);
  cluster.submit();
  cluster.run_for(20.0);
  EXPECT_GE(replicas_at(cluster, 1), 3u);
  EXPECT_EQ(real_executed(cluster.replica(3)), 0u);
  EXPECT_TRUE(cluster.logs_consistent());

  // Now cut a second replica: only 2 of 4 connected — no quorum, the new
  // request stalls everywhere.
  cluster.network().set_partition_group(2, 2);
  cluster.submit();
  cluster.run_for(20.0);
  EXPECT_EQ(replicas_at(cluster, 2), 0u);
  EXPECT_TRUE(cluster.logs_consistent());

  // Heal: the pending request commits on (at least) a quorum.
  cluster.network().heal_partitions();
  cluster.run_for(120.0);
  EXPECT_GE(replicas_at(cluster, 2), 3u);
  EXPECT_TRUE(cluster.logs_consistent());
}

TEST(BftAdversarial, AdversarialLinkDropAgainstOneReplica) {
  // The adversary drops everything TO replica 2 (it can still send).
  // n = 4 tolerates one such isolated replica: the other three commit.
  Cluster cluster(4, fast_options(22));
  cluster.network().set_filter(
      [](net::NodeId, net::NodeId to) { return to != 2; });
  for (int i = 0; i < 3; ++i) cluster.submit();
  cluster.run_for(60.0);
  EXPECT_GE(replicas_at(cluster, 3), 3u);
  EXPECT_EQ(real_executed(cluster.replica(2)), 0u);
  EXPECT_TRUE(cluster.logs_consistent());
}

TEST(BftAdversarial, AdversarialDelayOnlySlowsDown) {
  // §II-B: the attacker may arbitrarily delay messages. Half a second on
  // every link of one replica must not break safety or liveness (the
  // other three carry the quorum).
  Cluster cluster(4, fast_options(23));
  cluster.network().set_delay_policy([](net::NodeId from, net::NodeId to) {
    return (from == 1 || to == 1) ? 0.5 : 0.0;
  });
  for (int i = 0; i < 3; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(3, 60.0));
  EXPECT_TRUE(cluster.logs_consistent());
}

TEST(BftAdversarial, ForgedEnvelopeIsIgnored) {
  Cluster cluster(4, fast_options(24));
  // An outsider injects a PrePrepare claiming to be replica 0 (the
  // primary) but signed with a key that is not in the directory.
  crypto::KeyPair outsider = crypto::KeyPair::derive(999999);
  Request forged_request{77, crypto::sha256("forged-op")};
  Envelope forged = make_envelope(/*sender=*/0, outsider,
                                  PrePrepare{0, 1, Batch{{forged_request}}});
  for (net::NodeId r = 0; r < 4; ++r) {
    cluster.network().send(0, r, forged, 256);
  }
  cluster.run_for(5.0);
  // Nothing executed: the forged pre-prepare must not start consensus.
  EXPECT_EQ(cluster.min_honest_executed(), 0u);

  // And the cluster still works normally afterwards.
  cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(1, 30.0));
}

TEST(BftAdversarial, EnvelopeDigestIsBoundAtConstruction) {
  // make_envelope hashes the payload once; the envelope is read-only, so
  // the digest every receiver verifies against is always the payload's.
  const crypto::KeyPair keys = crypto::KeyPair::derive(5);
  const crypto::KeyPair outsider = crypto::KeyPair::derive(6);
  crypto::KeyRegistry registry;
  registry.enroll(keys);
  const Request r{9, crypto::sha256("op")};
  const Envelope env = make_envelope(2, keys, PrePrepare{1, 3, Batch{{r}}});
  EXPECT_EQ(env.sender(), 2u);
  EXPECT_EQ(env.digest(), payload_digest(env.payload()));
  EXPECT_TRUE(verify_envelope(registry, env));
  // The same payload signed by an unenrolled key carries the same digest
  // and still fails: binding the digest skips only the rehash.
  const Envelope forged =
      make_envelope(2, outsider, PrePrepare{1, 3, Batch{{r}}});
  EXPECT_EQ(forged.digest(), env.digest());
  EXPECT_FALSE(verify_envelope(registry, forged));
}

TEST(BftAdversarial, ViewChangeProofKeepsTheSignedDigest) {
  // A NEW-VIEW proof is lifted from the VIEW-CHANGE envelope itself, so
  // its digest is the one the sender signed, and a proof lifted from a
  // forged envelope fails the directory check exactly as before.
  const crypto::KeyPair keys = crypto::KeyPair::derive(7);
  const crypto::KeyPair outsider = crypto::KeyPair::derive(8);
  crypto::KeyRegistry registry;
  registry.enroll(keys);
  ViewChange vc;
  vc.new_view = 4;
  vc.last_executed = 2;
  vc.prepared.push_back(
      PreparedEntry{3, 3, Batch{{Request{1, crypto::sha256("a")}}}});
  const SignedViewChange proof(make_envelope(1, keys, vc));
  EXPECT_EQ(proof.sender(), 1u);
  EXPECT_EQ(proof.digest(), vc.digest());
  EXPECT_TRUE(registry.verify(keys.public_key(), proof.digest(),
                              proof.signature()));
  const SignedViewChange forged(make_envelope(1, outsider, vc));
  EXPECT_FALSE(registry.verify(keys.public_key(), forged.digest(),
                               forged.signature()));
}

TEST(BftAdversarial, OutsiderCannotSendProtocolMessages) {
  Cluster cluster(4, fast_options(25));
  // A *valid* key, but sender id beyond the directory: protocol messages
  // (non-Request) from clients must be ignored.
  crypto::KeyPair client = crypto::KeyPair::derive(424242);
  // Enroll via a fresh cluster-side path: the registry only holds cluster
  // keys, so verification fails regardless; this asserts no crash and no
  // progress from garbage.
  Envelope env = make_envelope(/*sender=*/17, client,
                               Commit{0, 1, crypto::sha256("x")});
  for (net::NodeId r = 0; r < 4; ++r) {
    cluster.network().send(17, r, env, 256);
  }
  cluster.run_for(2.0);
  EXPECT_EQ(cluster.min_honest_executed(), 0u);
}

TEST(BftAdversarial, WeightedEquivocatorBelowThirdIsHarmless) {
  // The equivocating primary holds 30% of power (< 1/3): after its view
  // is changed away, the remaining 70% commits everything.
  std::vector<double> weights = {3.0, 2.0, 2.5, 2.5};
  std::vector<Behavior> behaviors = {Behavior::kEquivocate,
                                     Behavior::kHonest, Behavior::kHonest,
                                     Behavior::kHonest};
  Cluster cluster(weights, fast_options(26), behaviors);
  for (int i = 0; i < 3; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(3, 90.0));
  EXPECT_TRUE(cluster.logs_consistent());
}

TEST(BftAdversarial, HeavySilentMajorityStallsForever) {
  // 40% silent weight > 1/3: permanent stall, but logs stay consistent —
  // exactly the safety-vs-liveness split the paper's f bound encodes.
  std::vector<double> weights = {4.0, 2.0, 2.0, 2.0};
  std::vector<Behavior> behaviors = {Behavior::kSilent, Behavior::kHonest,
                                     Behavior::kHonest, Behavior::kHonest};
  Cluster cluster(weights, fast_options(27), behaviors);
  cluster.submit();
  EXPECT_FALSE(cluster.run_until_executed(1, 30.0));
  EXPECT_TRUE(cluster.logs_consistent());
  // View changes happened (liveness attempts) but could not assemble.
  bool attempted = false;
  for (std::size_t i = 1; i < 4; ++i) {
    attempted |= cluster.replica(i).telemetry().disruptions > 0;
  }
  EXPECT_TRUE(attempted);
}

TEST(BftAdversarial, LateJoinerCatchesUpViaBufferedMessages) {
  // A replica whose inbound links are delayed by more than a view-change
  // round still converges thanks to future-view message buffering.
  Cluster cluster(7, fast_options(28));
  cluster.network().set_delay_policy([](net::NodeId, net::NodeId to) {
    return to == 6 ? 0.4 : 0.0;  // replica 6 lags behind everyone
  });
  for (int i = 0; i < 5; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(5, 60.0));
  cluster.run_for(10.0);  // let the laggard drain its queue
  EXPECT_TRUE(cluster.logs_consistent());
  // The laggard really executed (not just the quorum without it).
  std::size_t real = 0;
  for (const ExecutedEntry& e : cluster.replica(6).executed()) {
    if (e.request.id != 0) ++real;
  }
  EXPECT_GE(real, 5u);
}

TEST(BftAdversarial, ContinuousLoadAcrossAViewChange) {
  // Requests keep arriving while the primary dies mid-stream; everything
  // submitted must eventually execute exactly once.
  std::vector<Behavior> behaviors(4, Behavior::kHonest);
  behaviors[0] = Behavior::kSilent;
  Cluster cluster(4, fast_options(29), behaviors);
  for (int wave = 0; wave < 4; ++wave) {
    for (int i = 0; i < 3; ++i) cluster.submit();
    cluster.run_for(1.0);
  }
  EXPECT_TRUE(cluster.run_until_executed(12, 120.0));
  EXPECT_TRUE(cluster.logs_consistent());
  // Exactly-once: no honest log contains a client request id twice.
  const auto& log = cluster.replica(1).executed();
  std::set<std::uint64_t> seen;
  for (const ExecutedEntry& e : log) {
    if (e.request.id == 0) continue;
    EXPECT_TRUE(seen.insert(e.request.id).second)
        << "duplicate execution of request " << e.request.id;
  }
}

TEST(BftAdversarial, EquivocatingPrimaryConflictingBatches) {
  // The equivocating primary now forges whole *batches*: conflicting
  // 4-request blocks for the same sequence number to the two halves of
  // the cluster. Neither half can certify a conflicting pair, the view
  // change evicts the equivocator, and every real request still commits
  // exactly once.
  ClusterOptions opt = fast_options(31);
  opt.replica.batch_size = 4;
  std::vector<Behavior> behaviors(4, Behavior::kHonest);
  behaviors[0] = Behavior::kEquivocate;
  Cluster cluster(4, opt, behaviors);
  for (int i = 0; i < 8; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(8, 120.0));
  EXPECT_TRUE(cluster.logs_consistent());
  // Exactly-once at request granularity despite batch-level equivocation.
  std::set<std::uint64_t> seen;
  for (const ExecutedEntry& e : cluster.replica(1).executed()) {
    if (e.request.id == 0) continue;
    EXPECT_TRUE(seen.insert(e.request.id).second)
        << "duplicate execution of request " << e.request.id;
  }
}

TEST(BftAdversarial, ViewChangeCarriesBatchPreparedOnMinority) {
  // Engineer a batch that reaches a prepared certificate on exactly one
  // replica (a minority), then force a view change: the prepared batch
  // must survive into the new view whole and commit everywhere.
  //
  // Link plan (n = 4, primary 0): the pre-prepare reaches 1 and 2; only
  // replica 1 hears replica 2's prepare. Prepare votes — at 1:
  // {0 (pre-prepare), 1, 2} = 3/4 weight -> prepared; at 0: {0} only; at
  // 2: {0, 2}; at 3: nothing. Commits cannot assemble anywhere.
  ClusterOptions opt = fast_options(32);
  opt.replica.batch_size = 3;
  opt.replica.batch_timeout = 0.3;  // cut by size, not timer
  Cluster cluster(4, opt);
  cluster.network().set_filter([](net::NodeId from, net::NodeId to) {
    if (from >= 4) return true;  // the client reaches everyone
    if (from == 0 && (to == 1 || to == 2)) return true;
    if (from == 2 && to == 1) return true;
    return false;
  });
  for (int i = 0; i < 3; ++i) cluster.submit();
  cluster.run_for(0.6);
  EXPECT_EQ(cluster.min_honest_executed(), 0u);  // nothing committed yet

  // Heal before the request timers (0.8 s) fire, so the view change that
  // follows runs over a working network. The new primary is replica 1 —
  // precisely the minority holder of the prepared batch — and must
  // re-propose it via its own view-change entry.
  cluster.network().set_filter(nullptr);
  EXPECT_TRUE(cluster.run_until_executed(3, 120.0));
  EXPECT_TRUE(cluster.logs_consistent());
  bool advanced = false;
  for (std::size_t i = 0; i < 4; ++i) {
    advanced |= cluster.replica(i).view() > 0;
  }
  EXPECT_TRUE(advanced);
  // Replica 3 never saw the original pre-prepare; it can only have the
  // requests via the re-proposed batch.
  std::set<std::uint64_t> ids;
  for (const ExecutedEntry& e : cluster.replica(3).executed()) {
    if (e.request.id != 0) ids.insert(e.request.id);
  }
  EXPECT_EQ(ids, (std::set<std::uint64_t>{1, 2, 3}));
}

TEST(BftAdversarial, DuplicateRequestInBatchesExecutesOnce) {
  // A Byzantine primary repeats one request — twice inside a single
  // batch and again in the next batch. Dedup must hold across batch
  // boundaries: every honest replica executes the request exactly once.
  //
  // The injected pre-prepares are signed with replica 0's real key
  // (derived exactly as the cluster derives it), so they pass
  // authentication — this is the primary misbehaving, not an outsider.
  ClusterOptions opt = fast_options(33);
  Cluster cluster(4, opt);
  const crypto::KeyPair primary_keys =
      crypto::KeyPair::derive(opt.seed * 1000003 + 0);
  const Request r{500, crypto::sha256("dup-op")};
  const Request other{501, crypto::sha256("other-op")};
  const Envelope first =
      make_envelope(0, primary_keys, PrePrepare{0, 1, Batch{{r, r, other}}});
  const Envelope second =
      make_envelope(0, primary_keys, PrePrepare{0, 2, Batch{{r}}});
  for (net::NodeId to = 0; to < 4; ++to) {
    cluster.network().send(0, to, first, 512);
    cluster.network().send(0, to, second, 512);
  }
  cluster.run_for(10.0);
  EXPECT_TRUE(cluster.logs_consistent());
  for (std::size_t i = 0; i < 4; ++i) {
    std::size_t dup_count = 0;
    std::size_t other_count = 0;
    for (const ExecutedEntry& e : cluster.replica(i).executed()) {
      if (e.request.id == 500) ++dup_count;
      if (e.request.id == 501) ++other_count;
    }
    EXPECT_EQ(dup_count, 1u) << "replica " << i;
    EXPECT_EQ(other_count, 1u) << "replica " << i;
    EXPECT_GE(cluster.replica(i).last_executed(), 2u) << "replica " << i;
  }
}

TEST(BftAdversarial, CensoringPrimaryCaughtDespiteSustainedProgress) {
  // Client-selective starvation: the primary serves even-id requests
  // promptly and silently drops odd-id ones. Even traffic keeps arriving
  // faster than request_timeout, so a liveness timer that resets on *any*
  // progress never fires and the censored clients starve forever — the
  // exact hole the per-request deadlines close. Each pending request now
  // carries its own arrival-based deadline, so the first odd request
  // trips a view change within one request_timeout regardless of how
  // much unrelated traffic commits, and the honest new primary re-drives
  // everything.
  std::vector<Behavior> behaviors(4, Behavior::kHonest);
  behaviors[0] = Behavior::kCensor;
  Cluster cluster(4, fast_options(34), behaviors);
  std::size_t submitted = 0;
  for (int wave = 0; wave < 10; ++wave) {
    // submit() ids count up from 1: every wave is one censored (odd) and
    // one served (even) request, 0.5 s apart — well inside the 0.8 s
    // request_timeout, so the old any-progress reset would never expire.
    cluster.submit();
    cluster.submit();
    submitted += 2;
    cluster.run_for(0.5);
  }
  EXPECT_TRUE(cluster.run_until_executed(submitted, 60.0));
  EXPECT_TRUE(cluster.logs_consistent());
  bool evicted = false;
  for (std::size_t i = 1; i < 4; ++i) {
    evicted |= cluster.replica(i).view() > 0;
  }
  EXPECT_TRUE(evicted) << "censorship never triggered a view change";
}

TEST(BftAdversarial, ColludingCoalitionAboveThirdViolatesSafety) {
  // The paper's safety threshold, demonstrated from the violating side:
  // a colluding coalition holding > W/3 endorses *both* halves of an
  // equivocation, handing each honest partition a full commit
  // certificate for its own digest. Coalition: the primary (weight 2)
  // plus backup 1 (weight 2) = 4 of W = 7 > W/3. The equivocation split
  // sends the real batch to even ids {2, 4} and the forged one to odd
  // ids {1, 3}; with coalition weight behind both digests, replicas
  // {2, 4} commit the real batch while {3} commits the forged one.
  std::vector<double> weights = {2.0, 2.0, 1.0, 1.0, 1.0};
  std::vector<Behavior> behaviors = {Behavior::kCollude, Behavior::kCollude,
                                     Behavior::kHonest, Behavior::kHonest,
                                     Behavior::kHonest};
  Cluster cluster(weights, fast_options(35), behaviors);
  cluster.submit();
  cluster.run_for(30.0);
  EXPECT_GE(cluster.max_honest_last_executed(), 1u);
  EXPECT_FALSE(cluster.logs_consistent())
      << "conflicting commit certificates should have diverged the logs";
}

TEST(BftAdversarial, ColludingCoalitionBelowThirdStaysSafe) {
  // Same attack, coalition at exactly 1/4 < 1/3: endorsing both digests
  // cannot complete a *conflicting certificate pair* (the two quorums
  // would have to share honest weight — the c > W/3 derivation in
  // replica.h). One half may still commit — with the colluder's weight a
  // single digest can reach quorum, forged requests and all, stranding
  // the other half's replica behind a conflicting prepared certificate —
  // but that is a liveness wound, not a safety one: every client request
  // still completes and no two honest logs ever disagree on a sequence
  // number.
  std::vector<Behavior> behaviors(4, Behavior::kHonest);
  behaviors[0] = Behavior::kCollude;
  Cluster cluster(4, fast_options(36), behaviors);
  for (int i = 0; i < 3; ++i) cluster.submit();
  cluster.run_for(90.0);
  EXPECT_EQ(cluster.completed_requests(), 3u);
  EXPECT_TRUE(cluster.logs_consistent());
}

TEST(BftAdversarial, CorruptedLinksAreRejectedAndCounted) {
  // Bit-flips on one replica's inbound links: every corrupted delivery
  // is rejected at the signature check and counted, never dispatched.
  // The other three replicas carry consensus; the victim contributes
  // nothing but stays safe.
  Cluster cluster(4, fast_options(37));
  cluster.network().set_corrupt_policy(
      [](net::NodeId, net::NodeId to) { return to == 2; });
  for (int i = 0; i < 3; ++i) cluster.submit();
  cluster.run_for(60.0);
  EXPECT_GE(replicas_at(cluster, 3), 3u);
  EXPECT_TRUE(cluster.logs_consistent());
  EXPECT_GT(cluster.replica(2).telemetry().corrupted_rejected, 0u);
  EXPECT_EQ(cluster.network().stats().messages_corrupted,
            cluster.replica(2).telemetry().corrupted_rejected);
}

TEST(BftAdversarial, CrashedNodeDropsTrafficUntilRestart) {
  // set_node_down models a crash at the network layer: the node neither
  // sends nor receives while down (including messages already in
  // flight). With only 2 of 4 replicas up nothing can commit; restarting
  // the crashed pair restores the quorum and the stalled request
  // executes. The crashed replicas kept their in-memory state (this is
  // the network hook, not a process restart), so no state transfer is
  // required for them to rejoin.
  Cluster cluster(4, fast_options(38));
  cluster.network().set_node_down(2, true);
  cluster.network().set_node_down(3, true);
  cluster.submit();
  cluster.run_for(20.0);
  EXPECT_EQ(cluster.min_honest_executed(), 0u);

  cluster.network().set_node_down(2, false);
  cluster.network().set_node_down(3, false);
  EXPECT_TRUE(cluster.run_until_executed(1, 120.0));
  EXPECT_TRUE(cluster.logs_consistent());
}

TEST(BftAdversarial, LossyNetworkQuorumStillCommits) {
  // 20% uniform message loss: without retransmission/state transfer,
  // replicas that miss messages may lag with execution gaps (documented
  // limitation) — they still contribute votes, so the *cluster* keeps
  // committing. Assert that at least two replicas executed everything
  // (evidence of commit quorums: commits need >2/3 weight of voters) and
  // that safety held throughout.
  ClusterOptions opt = fast_options(30);
  opt.network.drop_probability = 0.20;
  opt.replica.request_timeout = 0.5;
  Cluster cluster(4, opt);
  for (int i = 0; i < 3; ++i) cluster.submit();
  cluster.run_for(240.0);
  EXPECT_GE(replicas_at(cluster, 3), 2u);
  EXPECT_TRUE(cluster.logs_consistent());
}

}  // namespace
}  // namespace findep::replication
