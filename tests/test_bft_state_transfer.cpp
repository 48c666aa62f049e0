// Checkpoint-anchored state transfer: un-stranding laggards after
// outages spanning multiple stable checkpoints, adversarial responders,
// view changes racing in-flight transfers, the checkpoint-vote watermark
// window, ReplicaOptions validation, and the regression pin that
// disabling the mechanism reproduces the historical stranding.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "bft_test_util.h"
#include "replication/cluster.h"
#include "runtime/registry.h"
#include "support/assert.h"

namespace findep::replication {
namespace {

ClusterOptions churn_options(std::uint64_t seed = 1) {
  ClusterOptions opt;
  opt.network.min_latency = 0.005;
  opt.network.mean_extra_latency = 0.01;
  opt.replica.request_timeout = 0.8;
  opt.replica.view_change_timeout = 1.2;
  opt.replica.checkpoint_interval = 4;
  opt.replica.state_transfer_grace = 0.1;
  opt.replica.state_transfer_timeout = 0.5;
  opt.seed = seed;
  return opt;
}

/// Offered load at `rate` req/s until `until` (simulated seconds).
void offer_load(Cluster& cluster, double rate, double until) {
  const int count = static_cast<int>(until * rate);
  for (int i = 0; i < count; ++i) {
    cluster.simulator().schedule_at(static_cast<double>(i) / rate,
                                    [&cluster] { (void)cluster.submit(); });
  }
}

/// Partition the given replicas away (each in its own group) at `from`,
/// heal everyone at `to`.
void schedule_outage(Cluster& cluster, std::vector<net::NodeId> crashed,
                     double from, double to) {
  cluster.simulator().schedule_at(from, [&cluster, crashed] {
    std::uint32_t group = 1;
    for (const net::NodeId node : crashed) {
      cluster.network().set_partition_group(node, group++);
    }
  });
  cluster.simulator().schedule_at(
      to, [&cluster] { cluster.network().heal_partitions(); });
}

TEST(BftStateTransfer, LaggardRecoversAcrossMultiCheckpointOutage) {
  // Replica 3 crashes through [1, 7) while load keeps flowing; the live
  // quorum advances many stable checkpoints meanwhile (interval 4), so
  // the laggard's missed traffic is unrecoverable from live messages —
  // only state transfer can close the gap.
  ClusterOptions opt = churn_options(101);
  Cluster cluster(4, opt);
  offer_load(cluster, 12.0, 9.0);
  schedule_outage(cluster, {3}, 1.0, 7.0);
  cluster.run_for(6.0);
  // Mid-outage sanity: the live side has moved more than two checkpoint
  // intervals past the laggard's horizon (the stranding precondition).
  EXPECT_GE(cluster.replica(0).stable_checkpoint(),
            cluster.replica(3).last_executed() + 2 * 4);
  cluster.run_for(14.0);
  EXPECT_EQ(cluster.stranded_replicas(), 0u);
  EXPECT_TRUE(cluster.logs_consistent());
  EXPECT_GE(cluster.replica(3).telemetry().state_transfers, 1u);
  EXPECT_GT(cluster.replica(3).telemetry().state_transfer_bytes, 0u);
  // Bounded view changes: the laggard may time out a few times while
  // catching up, but there is no open-ended thrash.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_LE(cluster.replica(i).telemetry().disruptions, 10u) << i;
  }
  // The laggard's adopted suffix is counted like executed batches.
  expect_recorded_executions_match_logs(cluster);
}

TEST(BftStateTransfer, DisabledStateTransferReproducesStranding) {
  // The identical schedule with state transfer off regression-pins the
  // historical behaviour: the laggard stays stranded below the stable
  // checkpoint and thrashes hopeless view changes.
  ClusterOptions opt = churn_options(101);
  opt.replica.enable_state_transfer = false;
  Cluster cluster(4, opt);
  offer_load(cluster, 12.0, 9.0);
  schedule_outage(cluster, {3}, 1.0, 7.0);
  cluster.run_for(20.0);
  EXPECT_EQ(cluster.stranded_replicas(), 1u);
  EXPECT_LT(cluster.replica(3).last_executed(),
            cluster.replica(0).last_executed());
  EXPECT_EQ(cluster.replica(3).telemetry().state_transfers, 0u);
  EXPECT_GT(cluster.replica(3).telemetry().disruptions, 5u);
  EXPECT_TRUE(cluster.logs_consistent());  // stranded, never inconsistent
}

TEST(BftStateTransfer, TwoLaggardsTwoCheckpointsBehindBothRecover) {
  // n = 7 tolerates f = 2: crash two replicas through an outage that
  // spans several stable checkpoints. Both must recover, and — the
  // checkpoint-adoption fix — the cluster must stabilize a *new*
  // checkpoint after the heal with the former laggards participating.
  ClusterOptions opt = churn_options(102);
  Cluster cluster(7, opt);
  offer_load(cluster, 12.0, 10.0);
  schedule_outage(cluster, {5, 6}, 1.0, 7.5);
  cluster.run_for(6.0);
  const SeqNum mid_outage_stable = cluster.replica(0).stable_checkpoint();
  EXPECT_GE(mid_outage_stable, cluster.replica(5).last_executed() + 2 * 4);
  cluster.run_for(24.0);
  EXPECT_EQ(cluster.stranded_replicas(), 0u);
  EXPECT_TRUE(cluster.logs_consistent());
  for (const std::size_t laggard : {5u, 6u}) {
    EXPECT_GE(cluster.replica(laggard).telemetry().state_transfers, 1u)
        << laggard;
  }
  // The next checkpoint quorum after the heal formed (no stall from
  // stale own-checkpoint re-broadcasts by the recovered laggards).
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_GT(cluster.replica(i).stable_checkpoint(), mid_outage_stable)
        << i;
  }
}

TEST(BftStateTransfer, ViewChangeRacesInFlightTransfer) {
  // The primary crashes at the same instant the laggard's outage heals:
  // the cluster runs a view change while the laggard's fetch is in
  // flight. The laggard must both catch up on execution *and* adopt the
  // new view (via the NEW-VIEW relayed in the state response or heard
  // live), then participate normally.
  ClusterOptions opt = churn_options(103);
  Cluster cluster(7, opt);
  offer_load(cluster, 12.0, 10.0);
  schedule_outage(cluster, {6}, 1.0, 7.0);
  // Primary of view 0 drops off just as the laggard rejoins.
  cluster.simulator().schedule_at(7.0, [&cluster] {
    cluster.network().set_partition_group(0, 9);
  });
  cluster.run_for(40.0);
  // Replica 0 is gone from 7.0 on; convergence is over replicas 1..6.
  bool advanced = false;
  SeqNum horizon = 0;
  for (std::size_t i = 1; i < 7; ++i) {
    advanced |= cluster.replica(i).view() > 0;
    horizon = std::max(horizon, cluster.replica(i).last_executed());
  }
  EXPECT_TRUE(advanced);
  EXPECT_GT(cluster.replica(6).view(), 0u);  // the laggard followed
  EXPECT_EQ(cluster.replica(6).last_executed(), horizon);
  EXPECT_GE(cluster.replica(6).telemetry().state_transfers, 1u);
  EXPECT_TRUE(cluster.logs_consistent());
}

/// What a malicious responder can try. It cannot forge a proof quorum
/// (that would need > 2/3 of the signing keys), so each kind breaks one
/// check of the shared receive path.
enum class Poison {
  kTamperedEntries,  ///< the real checkpoint and proof, garbage entries
  kRepeatedSigner,   ///< all three proof votes from signer 0
  kUnknownSigner,    ///< one proof vote from signer 7 of an n=4 cluster
  kWrongKey,         ///< one proof vote signed with another replica's key
};

std::string poison_name(Poison poison) {
  switch (poison) {
    case Poison::kTamperedEntries:
      return "tampered_entries";
    case Poison::kRepeatedSigner:
      return "repeated_signer";
    case Poison::kUnknownSigner:
      return "unknown_signer";
    case Poison::kWrongKey:
      return "wrong_key";
  }
  return "?";
}

class BftStateTransferPoison
    : public ::testing::TestWithParam<std::tuple<Protocol, Poison>> {};

TEST_P(BftStateTransferPoison, MaliciousResponderIsRejected) {
  // Replica 1 answers the laggard with garbage entries. With the real
  // checkpoint and proof, the state digest gives them away. The other
  // kinds claim a fake checkpoint whose digest the garbage reproduces,
  // so only the proof's quorum check stands between the laggard and the
  // poison. Each kind must be rejected without executing a poisoned
  // request, and the laggard must still converge via an honest
  // responder. Both lanes share the receive path that checks it.
  const auto [protocol, poison] = GetParam();
  ClusterOptions opt = churn_options(104);
  opt.protocol = protocol;
  Cluster cluster(4, opt);
  offer_load(cluster, 12.0, 9.0);
  schedule_outage(cluster, {3}, 1.0, 7.0);
  cluster.run_for(6.5);  // mid-outage: checkpoints are stable, 3 lags

  // Keys derived exactly as the cluster derives them.
  const auto keys_of = [&opt](ReplicaId r) {
    return crypto::KeyPair::derive(opt.seed * 1000003 + r);
  };
  const SeqNum stable = cluster.node(1).stable_checkpoint();
  StateResponse resp;
  resp.request_from = cluster.node(3).last_executed();
  ASSERT_GT(stable, resp.request_from);
  for (SeqNum s = resp.request_from + 1; s <= stable; ++s) {
    resp.entries.push_back(
        ExecutedEntry{s, Request{90000 + s, crypto::sha256("tampered")}});
  }
  resp.checkpoint =
      poison == Poison::kTamperedEntries
          ? Checkpoint{stable, cluster.node(1).stable_checkpoint_digest()}
          : Checkpoint{stable, state_digest_over(cluster.node(3).executed(),
                                                 resp.entries)};
  const auto vote = [&](ReplicaId signer, ReplicaId key) {
    return SignedCheckpoint{signer, resp.checkpoint,
                            keys_of(key).sign(resp.checkpoint.digest())};
  };
  switch (poison) {
    case Poison::kTamperedEntries:
      resp.proof = {vote(0, 0), vote(1, 1), vote(2, 2)};
      break;
    case Poison::kRepeatedSigner:
      resp.proof = {vote(0, 0), vote(0, 0), vote(0, 0)};
      break;
    case Poison::kUnknownSigner:
      resp.proof = {vote(0, 0), vote(1, 1), vote(7, 7)};
      break;
    case Poison::kWrongKey:
      resp.proof = {vote(0, 0), vote(1, 1), vote(2, 3)};
      break;
  }
  const crypto::KeyPair responder_keys = keys_of(1);
  // Heal only the laggard's link and inject the poison immediately.
  cluster.simulator().schedule_at(7.0, [&cluster, &responder_keys, resp] {
    cluster.network().send(
        1, 3, net::Envelope(make_envelope(1, responder_keys, resp)),
        payload_wire_bytes(Payload{resp}));
  });
  cluster.run_for(13.5);

  EXPECT_GE(cluster.node(3).telemetry().state_transfers_rejected, 1u);
  // ...and the honest path still won: fully converged, logs clean, no
  // poisoned request ever executed.
  EXPECT_EQ(cluster.stranded_replicas(), 0u);
  EXPECT_TRUE(cluster.logs_consistent());
  for (const ExecutedEntry& e : cluster.node(3).executed()) {
    EXPECT_LT(e.request.id, 90000u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsAndPoisons, BftStateTransferPoison,
    ::testing::Combine(::testing::Values(Protocol::kPbft,
                                         Protocol::kHotStuff),
                       ::testing::Values(Poison::kTamperedEntries,
                                         Poison::kRepeatedSigner,
                                         Poison::kUnknownSigner,
                                         Poison::kWrongKey)),
    [](const ::testing::TestParamInfo<std::tuple<Protocol, Poison>>& info) {
      return std::string(protocol_name(std::get<0>(info.param))) + "_" +
             poison_name(std::get<1>(info.param));
    });

TEST(BftStateTransfer, SingleFarFutureClaimDoesNotTriggerFetch) {
  // The watermark window drops far-future checkpoint votes from the
  // quorum map, and a lone claimant (< 1/3 weight) must not trigger
  // state transfer either — a Byzantine replica advertising a fantasy
  // horizon costs the cluster nothing.
  ClusterOptions opt = churn_options(105);
  Cluster cluster(4, opt);
  const crypto::KeyPair liar_keys =
      crypto::KeyPair::derive(opt.seed * 1000003 + 2);
  for (int wave = 0; wave < 5; ++wave) {
    const Checkpoint fantasy{100000 + static_cast<SeqNum>(wave),
                             crypto::sha256("fantasy")};
    const net::Envelope env(make_envelope(2, liar_keys, fantasy));
    cluster.simulator().schedule_at(0.5 * wave, [&cluster, env] {
      for (net::NodeId to = 0; to < 4; ++to) {
        if (to != 2) cluster.network().send(2, to, env, 192);
      }
    });
  }
  offer_load(cluster, 10.0, 2.0);
  cluster.run_for(20.0);
  EXPECT_EQ(cluster.stranded_replicas(), 0u);
  EXPECT_TRUE(cluster.logs_consistent());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.replica(i).telemetry().state_requests_sent, 0u) << i;
    EXPECT_EQ(cluster.replica(i).telemetry().state_transfers, 0u) << i;
  }
}

TEST(BftStateTransfer, SustainedLoadCausesNoSpuriousViewChanges) {
  // Regression for the request-timer reset: under sustained load the
  // pending set never fully drains, and the un-reset timer used to fire
  // a spurious view change every request_timeout even though every
  // request committed promptly. Progress must keep the timer quiet.
  ClusterOptions opt = churn_options(106);
  opt.replica.batch_size = 4;
  Cluster cluster(10, opt);
  offer_load(cluster, 12.0, 6.0);
  cluster.run_for(10.0);
  EXPECT_EQ(cluster.completed_requests(), 72u);
  EXPECT_EQ(cluster.stranded_replicas(), 0u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(cluster.replica(i).telemetry().disruptions, 0u) << i;
    EXPECT_EQ(cluster.replica(i).view(), 0u) << i;
  }
}

TEST(BftStateTransfer, OptionsValidationFailsFast) {
  // batch_timeout >= request_timeout was a documented footgun (spurious
  // view changes); now it is a construction error, as is a zero
  // checkpoint interval.
  ClusterOptions bad_batch = churn_options(107);
  bad_batch.replica.batch_timeout = bad_batch.replica.request_timeout;
  EXPECT_THROW(Cluster(4, bad_batch), support::ContractViolation);

  ClusterOptions bad_interval = churn_options(108);
  bad_interval.replica.checkpoint_interval = 0;
  EXPECT_THROW(Cluster(4, bad_interval), support::ContractViolation);

  ClusterOptions bad_grace = churn_options(109);
  bad_grace.replica.state_transfer_grace = 0.0;
  EXPECT_THROW(Cluster(4, bad_grace), support::ContractViolation);
}

TEST(BftStateTransfer, ChurnScenarioPinsBothDirections) {
  // Scenario-level acceptance, the same property CI gates: with state
  // transfer on, a just-under-1/3 crash through a multi-checkpoint
  // outage ends with zero stranded replicas; with it off, the identical
  // workload reproduces the stranding.
  const auto run = [](bool transfer) {
    runtime::ParamSet point;
    point.set("n", 10);
    point.set("crash", 0.3);
    point.set("outage", 6.0);
    point.set("batch_size", 4);
    point.set("state_transfer", transfer ? 1 : 0);
    const runtime::Scenario scenario =
        runtime::ScenarioRegistry::global().find("bft_churn")->factory(point);
    return scenario.run(runtime::RunContext{.seed = 9, .run_index = 0});
  };
  const runtime::MetricRecord with = run(true);
  EXPECT_EQ(with.get("stranded_replicas"), 0.0);
  EXPECT_GT(with.get("recovery_time_s"), 0.0);
  EXPECT_GT(with.get("state_transfers"), 0.0);
  EXPECT_GT(with.get("state_transfer_bytes"), 0.0);
  EXPECT_LE(with.get("max_view_changes"), 10.0);

  const runtime::MetricRecord without = run(false);
  EXPECT_EQ(without.get("stranded_replicas"), 3.0);  // floor(10 * 0.3)
  EXPECT_EQ(without.get("recovery_time_s"), -1.0);
  EXPECT_EQ(without.get("state_transfers"), 0.0);
}

}  // namespace
}  // namespace findep::replication
