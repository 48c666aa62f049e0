// Request batching: the Batch payload, the size-aware wire model, the
// primary's cut policy (size / timeout), latency semantics at request
// granularity, and the headline amortization property — batch_size = 8
// commits the same requests with >= 4x fewer protocol messages per
// committed request than batch_size = 1.
#include <gtest/gtest.h>

#include <set>

#include "bft_test_util.h"
#include "support/assert.h"

namespace findep::replication {
namespace {

Request make_request(std::uint64_t id) {
  return Request{id, crypto::Sha256{}.update_u64(id).finish()};
}

TEST(BftBatch, DigestCommitsToContentOrderAndCount) {
  const Request a = make_request(1);
  const Request b = make_request(2);
  const Batch ab{{a, b}};
  const Batch ba{{b, a}};
  const Batch a_only{{a}};
  const Batch aa{{a, a}};
  EXPECT_EQ(ab.digest(), (Batch{{a, b}}.digest()));
  EXPECT_NE(ab.digest(), ba.digest());
  EXPECT_NE(ab.digest(), a_only.digest());
  EXPECT_NE(a_only.digest(), aa.digest());
  EXPECT_NE(Batch{}.digest(), a_only.digest());
}

TEST(BftBatch, WireBytesScaleWithBatchAndPreparedEntries) {
  const Request r = make_request(7);
  // A single-request batch costs exactly what the unbatched protocol
  // charged for a pre-prepare (512), so batch_size=1 accounting is
  // byte-identical to the historical flat model.
  EXPECT_EQ(payload_wire_bytes(Payload{PrePrepare{0, 1, Batch{{r}}}}), 512u);
  EXPECT_EQ(payload_wire_bytes(Payload{r}), 512u);
  EXPECT_EQ(payload_wire_bytes(Payload{Prepare{}}), 192u);
  EXPECT_EQ(payload_wire_bytes(Payload{Commit{}}), 192u);
  EXPECT_EQ(payload_wire_bytes(Payload{Checkpoint{}}), 192u);
  // Batched requests share the header: 3 requests cost 192 + 3*320, far
  // below 3 separate pre-prepares.
  const Batch three{{make_request(1), make_request(2), make_request(3)}};
  EXPECT_EQ(payload_wire_bytes(Payload{PrePrepare{0, 1, three}}),
            192u + 3u * 320u);
  // View changes are flat while empty and grow with carried batches —
  // the under-reporting fix for variable-length payloads.
  ViewChange vc;
  vc.new_view = 1;
  EXPECT_EQ(payload_wire_bytes(Payload{vc}), 1024u);
  vc.prepared.push_back(PreparedEntry{0, 1, three});
  EXPECT_EQ(payload_wire_bytes(Payload{vc}), 1024u + 48u + 3u * 320u);
}

TEST(BftBatch, FullBatchesCommitAndUnrollPerRequest) {
  ClusterOptions opt = fast_options(41);
  opt.replica.batch_size = 4;
  // Cut on size only: 8 requests = exactly two full batches, because
  // each batch fills within kBatchTimeout of its first request.
  Cluster cluster(4, opt);
  for (int i = 0; i < 8; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(8, 60.0));
  EXPECT_TRUE(cluster.logs_consistent());
  // 8 requests in 4-request batches: the log unrolls each batch into
  // per-request entries that share the batch's slot seq.
  const auto& log = cluster.replica(1).executed();
  ASSERT_EQ(log.size(), 8u);
  std::set<std::uint64_t> seqs;
  for (const ExecutedEntry& e : log) seqs.insert(e.seq);
  EXPECT_EQ(seqs.size(), 2u);  // two consensus instances
  EXPECT_EQ(executed_ids(cluster.replica(1)),
            (std::set<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(BftBatch, PartialBatchIsCutByTimeout) {
  // 3 requests against batch_size = 8: nothing ever fills the batch, so
  // the timeout must cut a partial batch (light-load liveness).
  ClusterOptions opt = fast_options(42);
  opt.replica.batch_size = 8;
  Cluster cluster(4, opt);
  for (int i = 0; i < 3; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(3, 30.0));
  EXPECT_TRUE(cluster.logs_consistent());
  // No view change was needed: the batch timer, not the request timer,
  // drove the proposal.
  EXPECT_EQ(cluster.replica(1).view(), 0u);
}

TEST(BftBatch, LatencyTracksRequestsNotBatches) {
  // Requests trickling in one per 100 ms with batch_size = 2: each
  // request's trace must complete at its own first honest execution.
  ClusterOptions opt = fast_options(43);
  opt.replica.batch_size = 2;
  Cluster cluster(4, opt);
  for (int i = 0; i < 4; ++i) {
    cluster.submit();
    cluster.run_for(0.1);
  }
  EXPECT_TRUE(cluster.run_until_executed(4, 30.0));
  for (const RequestTrace& t : cluster.traces()) {
    ASSERT_TRUE(t.done());
    EXPECT_GT(t.latency(), 0.0);
    // Submissions were 100 ms apart and batches cut within kBatchTimeout
    // (50 ms), so no request can have waited for a whole later arrival
    // wave.
    EXPECT_LT(t.latency(), 0.5);
  }
}

TEST(BftBatch, BatchSizeEightAmortizesFourfold) {
  // The PR acceptance property, asserted through the scenario metric:
  // same cluster, same 16 requests, same seed — batch_size = 8 must
  // commit them with >= 4x fewer protocol messages per committed request
  // than batch_size = 1.
  const auto metrics_for = [](std::size_t batch_size) {
    return bft_scaling_cell(10, batch_size, 16)
        .run(runtime::RunContext{.seed = 77, .run_index = 0});
  };
  const runtime::MetricRecord unbatched = metrics_for(1);
  const runtime::MetricRecord batched = metrics_for(8);
  ASSERT_EQ(unbatched.get("completed"), 1.0);
  ASSERT_EQ(batched.get("completed"), 1.0);
  const double ratio = unbatched.get("msgs_per_committed_request") /
                       batched.get("msgs_per_committed_request");
  EXPECT_GE(ratio, 4.0) << "unbatched " << unbatched.get(
                               "msgs_per_committed_request")
                        << " vs batched "
                        << batched.get("msgs_per_committed_request");
  // Fewer messages must not mean fewer commits: both runs committed all
  // 16 requests (completed == 1 asserts the full target was reached).
  EXPECT_EQ(unbatched.get("requests_per_second") > 0.0, true);
  EXPECT_EQ(batched.get("requests_per_second") > 0.0, true);
}

TEST(BftBatch, SameRequestsCommittedAcrossBatchSizes) {
  // Cluster-level twin of the amortization test: identical submissions,
  // identical executed id sets, batching only changes the grouping.
  const auto ids_for = [](std::size_t batch_size) {
    ClusterOptions opt = fast_options(44);
    opt.replica.batch_size = batch_size;
    Cluster cluster(4, opt);
    for (int i = 0; i < 12; ++i) cluster.submit();
    EXPECT_TRUE(cluster.run_until_executed(12, 60.0));
    EXPECT_TRUE(cluster.logs_consistent());
    return executed_ids(cluster.replica(2));
  };
  EXPECT_EQ(ids_for(1), ids_for(4));
}

TEST(BftBatch, OfferedLoadScenarioCommitsEverything) {
  // Open-loop arrivals: 12 requests at 50 req/s against batch_size = 4.
  const runtime::MetricRecord metrics = bft_scaling_cell(4, 4, 12, 50.0).run(
      runtime::RunContext{.seed = 5, .run_index = 0});
  EXPECT_EQ(metrics.get("completed"), 1.0);
  EXPECT_GT(metrics.get("requests_per_second"), 0.0);
  EXPECT_GT(metrics.get("msgs_per_committed_request"), 0.0);
}

TEST(BftBatch, LaggardSurvivesRemoteCheckpointAtDepth) {
  // Regression: 16 unbatched in-flight slots race the checkpoint at
  // seq 16 on a 25-replica cluster. Replicas that hear a stable
  // checkpoint before finishing their own slots used to prune the
  // in-flight state and strand themselves (no state transfer), thrashing
  // hopeless view changes; they must instead keep slots above their own
  // execution horizon and finish. This seed deterministically stalled
  // before the fix (completed == 0 with ~161 view changes).
  const runtime::MetricRecord metrics = bft_scaling_cell(25, 1, 16).run(
      runtime::RunContext{.seed = 13757245211066428519ULL, .run_index = 0});
  EXPECT_EQ(metrics.get("completed"), 1.0);
  EXPECT_EQ(metrics.get("max_view_changes"), 0.0);
}

TEST(BftBatch, RejectsZeroBatchSize) {
  ClusterOptions opt = fast_options(45);
  opt.replica.batch_size = 0;
  EXPECT_THROW(Cluster(4, opt), support::ContractViolation);
}

}  // namespace
}  // namespace findep::replication
