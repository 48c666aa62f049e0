// Modeled crypto cost in the PBFT cluster: crypto=free stays exactly the
// historical protocol (worker knob inert), a modeled cost slows the run,
// more workers speed it back up, and every configuration remains a pure
// function of the seed. One harness-level case pins the order in which
// the verify queue dispatches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "crypto/cost.h"
#include "net/network.h"
#include "replication/cluster.h"
#include "replication/protocol.h"
#include "sim/simulator.h"
#include "support/assert.h"

namespace findep::replication {
namespace {

ClusterOptions crypto_options(std::uint64_t seed, crypto::CostModel model,
                              std::size_t workers) {
  ClusterOptions opt;
  opt.network.min_latency = 0.005;
  opt.network.mean_extra_latency = 0.01;
  // Throughput study, not a liveness one: park the timers so a saturated
  // single-core replica is measured instead of view-changed.
  opt.replica.request_timeout = 30.0;
  opt.replica.view_change_timeout = 45.0;
  opt.replica.batch_size = 8;
  opt.replica.cost_model = model;
  opt.replica.crypto_workers = workers;
  opt.seed = seed;
  return opt;
}

struct RunResult {
  std::vector<ExecutedEntry> log;
  double span = 0.0;
  std::uint64_t verify_tasks = 0;
};

RunResult run_cluster(crypto::CostModel model, std::size_t workers,
                      int requests = 64) {
  Cluster cluster(4, crypto_options(7, model, workers));
  for (int i = 0; i < requests; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(
      static_cast<std::size_t>(requests), 120.0));
  EXPECT_TRUE(cluster.logs_consistent());
  return RunResult{cluster.replica(1).executed(),
                   cluster.last_completion_time(),
                   cluster.total(&Telemetry::verify_tasks)};
}

/// Cross-configuration comparisons work at agreement level: charging CPU
/// time shifts *when* requests reach the primary's batcher, so batch
/// composition (and hence the exact log) legitimately differs between
/// cost models and worker counts. What must not differ is *what* was
/// agreed: the set of executed request ids.
std::vector<std::uint64_t> executed_ids(
    const std::vector<ExecutedEntry>& log) {
  std::vector<std::uint64_t> ids;
  ids.reserve(log.size());
  for (const ExecutedEntry& e : log) ids.push_back(e.request.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(BftCrypto, FreeModelBuildsNoPoolAndWorkerKnobIsInert) {
  // Bit-identity of crypto=free across worker counts: the pool is never
  // built, so the executed log and every completion time are exactly the
  // single-core run's. This is the in-process half of the CI inertness
  // cmp (which additionally diffs whole catalog outputs).
  const RunResult w1 = run_cluster(crypto::CostModel::free(), 1);
  const RunResult w8 = run_cluster(crypto::CostModel::free(), 8);
  EXPECT_EQ(w1.verify_tasks, 0u);
  EXPECT_EQ(w8.verify_tasks, 0u);
  EXPECT_EQ(w1.log, w8.log);
  EXPECT_EQ(w1.span, w8.span);  // exact, not approximate
}

TEST(BftCrypto, ModeledCostSlowsTheRunAndOffloadsVerification) {
  // A deliberately heavy model (≈40× Ed25519) so CPU time dominates the
  // network latency decisively; with realistic figures the sign delay can
  // *speed up* short runs by packing fuller batches.
  const crypto::CostModel heavy{.sign_ns = 2.0e6,
                                .verify_ns = 5.0e6,
                                .batch_verify_base_ns = 1.0e6,
                                .batch_verify_item_ns = 2.5e6};
  const RunResult free_run = run_cluster(crypto::CostModel::free(), 1);
  const RunResult modeled = run_cluster(heavy, 1);
  EXPECT_GT(modeled.verify_tasks, 0u);
  EXPECT_GT(modeled.span, free_run.span);
  // Charging CPU time must not change *what* is agreed, only when.
  EXPECT_EQ(executed_ids(modeled.log), executed_ids(free_run.log));
}

TEST(BftCrypto, MoreWorkersRecoverThroughput) {
  const RunResult w1 = run_cluster(crypto::CostModel::modeled(), 1, 256);
  const RunResult w8 = run_cluster(crypto::CostModel::modeled(), 8, 256);
  EXPECT_LT(w8.span, w1.span);
  // Same agreement, different clock (and so different batch packing).
  EXPECT_EQ(executed_ids(w1.log), executed_ids(w8.log));
}

TEST(BftCrypto, ModeledRunsAreDeterministic) {
  const RunResult a = run_cluster(crypto::CostModel::modeled(), 4);
  const RunResult b = run_cluster(crypto::CostModel::modeled(), 4);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.span, b.span);
  EXPECT_EQ(a.verify_tasks, b.verify_tasks);
}

TEST(BftCrypto, StaleDropsReachTheClusterTotals) {
  // One modeled core per replica and a burst of 2048 requests keep a
  // verify backlog queued; the primary's crash at 0.5 s then installs
  // view 1 while old-view traffic still waits, and the stale check sheds
  // it at dequeue. The drops must travel pool -> replica telemetry ->
  // Cluster::total.
  ClusterOptions opt = crypto_options(1, crypto::CostModel::modeled(), 1);
  opt.replica.request_timeout = 0.8;
  opt.replica.view_change_timeout = 1.2;
  Cluster cluster(4, opt);
  for (int i = 0; i < 2048; ++i) cluster.submit();
  cluster.simulator().schedule_at(
      0.5, [&cluster] { cluster.network().set_node_down(0, true); });
  cluster.run_for(120.0);
  EXPECT_EQ(cluster.completed_requests(), 2048u);
  EXPECT_TRUE(cluster.logs_consistent());
  const std::uint64_t dropped =
      cluster.total(&Telemetry::verify_dropped_stale);
  EXPECT_GT(dropped, 0u);
  EXPECT_LE(dropped, cluster.total(&Telemetry::verify_tasks));
}

TEST(BftCrypto, ProofSignaturesCountTheVotesACarrierEmbeds) {
  // What a receiver batch-verifies on top of the envelope signature is
  // a property of the payload: the six proof carriers report how many
  // signatures they embed, every other payload carries no proof.
  const crypto::KeyPair keys = crypto::KeyPair::derive(1);
  const crypto::Signature sig = keys.sign(crypto::sha256("vote"));
  const QuorumCert qc{3, 2, crypto::sha256("block"),
                      {{0, sig}, {1, sig}, {2, sig}}};
  NewView nv{.view = 1};
  for (ReplicaId r = 0; r < 4; ++r) {
    nv.proofs.emplace_back(
        make_envelope(r, keys, ViewChange{.new_view = 1}));
  }
  StateResponse resp;
  resp.proof.assign(2, SignedCheckpoint{});
  const HsBlock block{.round = 4, .height = 3, .justify = qc};

  EXPECT_EQ(proof_signatures(nv), std::optional<std::size_t>(4));
  EXPECT_EQ(proof_signatures(resp), std::optional<std::size_t>(2));
  EXPECT_EQ(proof_signatures(HsProposal{block}),
            std::optional<std::size_t>(3));
  EXPECT_EQ(proof_signatures(HsBlockResponse{block}),
            std::optional<std::size_t>(3));
  EXPECT_EQ(proof_signatures(HsTimeout{5, qc}),
            std::optional<std::size_t>(3));
  EXPECT_EQ(proof_signatures(HsQcNotice{qc}), std::optional<std::size_t>(3));
  // A proposal justified by the vote-free genesis QC still carries a
  // (zero-signature) proof, so it pays the batch base cost.
  EXPECT_EQ(proof_signatures(HsProposal{}), std::optional<std::size_t>(0));

  static_assert(std::variant_size_v<Payload> == 15,
                "a new payload must be classified here");
  const std::vector<Payload> plain = {
      Request{},    PrePrepare{},   Prepare{}, Commit{}, Checkpoint{},
      ViewChange{}, StateRequest{}, HsVote{},  HsBlockRequest{}};
  for (const Payload& payload : plain) {
    EXPECT_EQ(proof_signatures(payload), std::nullopt)
        << "payload index " << payload.index();
  }
}

/// A lane that records the tag of every message the harness dispatches
/// to it: a Request's id, a Prepare's or Commit's seq. A Prepare in view
/// kGoesStale is declared stale once anything has been dispatched, so it
/// would pass the check at arrival and fails it at dequeue.
class RecordingLane final : public OrderingProtocol {
 public:
  static constexpr View kGoesStale = 9;

  RecordingLane(const std::vector<crypto::PublicKey>& directory,
                crypto::KeyRegistry& registry, crypto::KeyPair keys,
                net::SimNetwork& network, ReplicaOptions options)
      : OrderingProtocol(0, std::vector<double>(directory.size(), 1.0),
                         directory, registry, std::move(keys), network,
                         std::move(options)) {}

  void dispatch_payload(const net::Envelope& wire, net::NodeId,
                        std::uint64_t) override {
    const Payload& payload = wire.get<Envelope>()->payload();
    if (const auto* r = std::get_if<Request>(&payload)) {
      dispatched.push_back(r->id);
    } else if (const auto* p = std::get_if<Prepare>(&payload)) {
      dispatched.push_back(p->seq);
    } else if (const auto* c = std::get_if<Commit>(&payload)) {
      dispatched.push_back(c->seq);
    }
  }
  [[nodiscard]] bool verify_stale(const Payload& payload) const override {
    const auto* p = std::get_if<Prepare>(&payload);
    return p != nullptr && p->view == kGoesStale && !dispatched.empty();
  }

  std::vector<std::uint64_t> dispatched;

 private:
  void on_request(const Request&, net::NodeId, const net::Envelope&,
                  std::uint64_t) override {}
};

TEST(BftCrypto, VerifyQueueDispatchesEachLaneInArrivalOrder) {
  // One modeled core and a fixed 5 ms link, so seven envelopes arrive at
  // replica 0 together and in send order: the first takes the idle
  // worker, and the rest queue behind it, critical and speculative
  // interleaved. The harness must dispatch each message that survives
  // exactly once, in arrival order within its lane and critical first,
  // and must never dispatch the one that went stale in the queue.
  sim::Simulator sim;
  net::NetworkOptions link;
  link.min_latency = 0.005;
  link.mean_extra_latency = 0.0;
  net::SimNetwork network(sim, link);
  crypto::KeyRegistry registry;
  std::vector<crypto::KeyPair> keys;  // replicas 0-3, then the client (4)
  std::vector<crypto::PublicKey> directory;
  for (std::uint64_t i = 0; i < 5; ++i) {
    keys.push_back(crypto::KeyPair::derive(500 + i));
    registry.enroll(keys.back());
    if (i < 4) directory.push_back(keys.back().public_key());
  }
  ReplicaOptions options;
  options.cost_model = crypto::CostModel::modeled();
  options.crypto_workers = 1;
  RecordingLane lane(directory, registry, keys[0], network, options);
  lane.start();

  const crypto::Digest d = crypto::sha256("op");
  const auto send = [&](ReplicaId from, Payload payload) {
    network.send(from, 0,
                 net::Envelope(make_envelope(from, keys[from],
                                             std::move(payload))));
  };
  send(1, Prepare{0, 1, d});                           // critical
  send(4, Request{2, d});                              // speculative
  send(2, Prepare{0, 3, d});                           // critical
  send(4, Request{4, d});                              // speculative
  send(3, Prepare{RecordingLane::kGoesStale, 5, d});   // critical, stale
  send(1, Commit{0, 6, d});                            // critical
  send(4, Request{7, d});                              // speculative
  sim.run();

  EXPECT_EQ(lane.dispatched, (std::vector<std::uint64_t>{1, 3, 6, 2, 4, 7}));
  const Telemetry t = lane.telemetry();
  EXPECT_EQ(t.verify_tasks, 7u);
  EXPECT_EQ(t.verify_dropped_stale, 1u);
}

TEST(BftCrypto, RejectsZeroWorkers) {
  EXPECT_THROW(
      Cluster(4, crypto_options(1, crypto::CostModel::modeled(), 0)),
      support::ContractViolation);
}

}  // namespace
}  // namespace findep::replication
