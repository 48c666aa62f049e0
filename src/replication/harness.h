// NodeHarness: the protocol-neutral bottom layer of a replica.
//
// Owns everything an ordering protocol needs but that is not ordering
// logic: the network attachment, envelope authentication and signature
// verification (inline under crypto=free, offloaded onto a modeled
// runtime::WorkerPool otherwise), the outbound signing accumulator, and
// the weighted-quorum arithmetic. The ordering protocol above it
// (replication::Pbft, replication::HotStuff) receives fully
// authenticated payloads through OrderingProtocol::dispatch_payload and
// sends through broadcast()/send_to()/relay() — it never touches the wire
// or the crypto cost model directly, so a new protocol inherits the
// entire modeled-crypto machinery for free.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "bft/messages.h"
#include "net/network.h"
#include "replication/options.h"
#include "runtime/workers.h"
#include "sim/simulator.h"
#include "support/assert.h"

namespace findep::replication {

class OrderingProtocol;

/// The voters of one vote, as bits indexed by ReplicaId and sized once
/// from the cluster size, so recording a vote allocates nothing. Every
/// vote a replica counts as it arrives goes into one: PBFT prepare and
/// commit votes, HotStuff QC and timeout votes, and checkpoint votes.
class VoteTally {
 public:
  explicit VoteTally(std::size_t n) : n_(n), words_((n + 63) / 64, 0) {}

  /// Records `r`'s vote. True when `r` had already voted; the tally is
  /// then unchanged.
  bool add(bft::ReplicaId r) {
    FINDEP_REQUIRE(r < n_);
    std::uint64_t& word = words_[r / 64];
    const std::uint64_t bit = std::uint64_t{1} << (r % 64);
    const bool repeat = (word & bit) != 0;
    word |= bit;
    return repeat;
  }
  [[nodiscard]] bool contains(bft::ReplicaId r) const noexcept {
    return r < n_ && (words_[r / 64] >> (r % 64) & 1) != 0;
  }

  /// The voters' `weights` summed in ascending replica id, from 0.0.
  /// Never in arrival order: floating-point addition does not
  /// associate, so the order can flip a quorum. With weights {0.1, 0.1,
  /// 0.3, 0.4}, voters {0, 1, 3} sum to 0.6000000000000001 in id order,
  /// more than 2/3 of 0.9, but to exactly 0.6 added as 0, 3, 1.
  [[nodiscard]] double weight(const std::vector<double>& weights) const {
    FINDEP_REQUIRE(weights.size() == n_);
    double sum = 0.0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        sum += weights[w * 64 + std::countr_zero(bits)];
      }
    }
    return sum;
  }

 private:
  std::size_t n_;
  std::vector<std::uint64_t> words_;
};

/// One replica's counters: what scenario metrics and the campaign
/// outcome classifier read. NodeHarness owns the block, and the
/// replica's layers (harness, OrderingProtocol base, lane) increment it
/// through NodeHarness::counters(); readers take a snapshot through
/// OrderingProtocol::telemetry().
struct Telemetry {
  /// Ordering-progress disruptions this replica started: PBFT view
  /// changes, HotStuff pacemaker timeouts.
  std::uint64_t disruptions = 0;
  /// This replica witnessed a leader-regime disruption, even one it did
  /// not start (it installed a view, or heard a timeout or a proposal
  /// past a round gap). Detection evidence for the campaign classifier.
  bool observed_disruption = false;
  /// Batch cuts the high-watermark bound deferred (PBFT primary only;
  /// every deferral counts, repeats for the same batch included).
  std::uint64_t proposals_deferred = 0;
  /// Messages rejected because they arrived corrupted (the simulated
  /// signature-verification failure over flipped wire bits): direct
  /// evidence that the fault was detected.
  std::uint64_t corrupted_rejected = 0;
  /// Verification tasks submitted to the worker pool, and those it shed
  /// as stale at dequeue. Both are read from the pool's own stats in
  /// the snapshot (0 under crypto=free, which builds no pool).
  std::uint64_t verify_tasks = 0;
  std::uint64_t verify_dropped_stale = 0;
  /// State transfers verified and adopted, and responses rejected for a
  /// bad proof, bad entries or a state digest mismatch.
  std::uint64_t state_transfers = 0;
  std::uint64_t state_transfers_rejected = 0;
  /// StateRequest messages sent (first attempts and retries).
  std::uint64_t state_requests_sent = 0;
  /// Wire bytes of every StateResponse received, adopted or rejected.
  std::uint64_t state_transfer_bytes = 0;
};

class NodeHarness {
 public:
  /// `weights[i]` is replica i's voting power; `directory[i]` its public
  /// key (both indexed by ReplicaId, same size). `keys` must match
  /// `directory[id]` and be enrolled in `registry`. Validates `options`
  /// with the validator every protocol shares.
  NodeHarness(OrderingProtocol& protocol, bft::ReplicaId id,
              std::vector<double> weights,
              std::vector<crypto::PublicKey> directory,
              crypto::KeyRegistry& registry, crypto::KeyPair keys,
              net::SimNetwork& network, ReplicaOptions options);

  NodeHarness(const NodeHarness&) = delete;
  NodeHarness& operator=(const NodeHarness&) = delete;

  /// Attaches the network handler. Call once before the simulation runs.
  void start();

  // Byte accounting is derived from the payload itself
  // (payload_wire_bytes), so variable-length payloads — batches, view
  // changes carrying prepared batches, proposals carrying QCs — are
  // charged what they carry. Under a non-free cost model sends serialize
  // behind the per-replica signing accumulator.
  void broadcast(bft::Payload payload);
  void send_to(net::NodeId to, bft::Payload payload);
  /// Forwards a client's request to `to` as the client signed it: `wire`
  /// is the delivered body, sent on unchanged with its delivered `bytes`,
  /// so a relay makes no envelope, digest or signature and is charged no
  /// sign time. `wire` must carry a bft::Request; a body some replica
  /// signed is not the client's and is not forwarded.
  void relay(net::NodeId to, const net::Envelope& wire, std::uint64_t bytes);

  [[nodiscard]] bft::ReplicaId id() const noexcept { return id_; }
  /// Cluster size (weights and directory share it).
  [[nodiscard]] std::size_t n() const noexcept { return weights_.size(); }
  [[nodiscard]] double weight_of(bft::ReplicaId r) const;
  /// The tally's voting power, summed in ascending replica id.
  [[nodiscard]] double vote_weight(const VoteTally& tally) const {
    return tally.weight(weights_);
  }
  [[nodiscard]] double total_weight() const noexcept { return total_weight_; }
  [[nodiscard]] bool is_quorum(double weight) const noexcept {
    return weight > 2.0 * total_weight_ / 3.0;
  }
  [[nodiscard]] bool is_third(double weight) const noexcept {
    return weight > total_weight_ / 3.0;
  }

  [[nodiscard]] const ReplicaOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const std::vector<crypto::PublicKey>& directory()
      const noexcept {
    return directory_;
  }
  [[nodiscard]] crypto::KeyRegistry& registry() const noexcept {
    return *registry_;
  }
  [[nodiscard]] net::SimNetwork& network() const noexcept {
    return *network_;
  }
  [[nodiscard]] sim::Simulator& simulator() const noexcept {
    return network_->simulator();
  }

  /// The replica's counters, for the layers that increment them.
  [[nodiscard]] Telemetry& counters() noexcept { return telemetry_; }
  /// A copy of the counters with the verify counts filled in from the
  /// pool, which counts them itself: a stale drop completes in lane
  /// order, so a count taken at completion would miss drops still queued
  /// behind unfinished work when the run stops.
  [[nodiscard]] Telemetry telemetry() const;

 private:
  void on_message(const net::Message& raw);
  /// Modeled-crypto inbound path: submits the message to the worker pool
  /// (critical lane for consensus/recovery traffic, speculative for
  /// client requests; protocol-declared stale work shed on dequeue),
  /// which verifies and dispatches it from the in-order completion.
  void offload_verify(const net::Message& raw, const bft::Envelope& env);
  /// Checks the envelope's signature and, when it holds, hands the
  /// message to the protocol: the inline path and the pool's completion.
  void verify_and_dispatch(const net::Message& raw);

  OrderingProtocol* protocol_;
  bft::ReplicaId id_;
  std::vector<double> weights_;
  std::vector<crypto::PublicKey> directory_;
  double total_weight_ = 0.0;
  crypto::KeyRegistry* registry_;
  crypto::KeyPair keys_;
  net::SimNetwork* network_;
  ReplicaOptions options_;

  Telemetry telemetry_;
  bool started_ = false;

  /// Modeled verification cores over the delivered messages; null under
  /// crypto=free (the historical inline path, bit-identical to
  /// pre-cost-model builds).
  std::unique_ptr<runtime::WorkerPool<net::Message>> verify_pool_;
  /// Signing accumulator: the simulated time at which the protocol core
  /// finishes its last queued signature. Each send under a non-free cost
  /// model is scheduled at max(now, sign_ready_at_) + sign_seconds, so
  /// back-to-back sends serialize the way one signing core would.
  double sign_ready_at_ = 0.0;
};

/// Checks a signed quorum proof one vote at a time: every signer must be
/// in the directory, sign at most once, and hold a valid signature over
/// the digest it signed. quorum() then tells whether the admitted
/// signers carry > 2/3 of the voting weight. The one check behind every
/// proof a replica verifies: checkpoint vote quorums, NEW-VIEW
/// view-change quorums and HotStuff QCs.
class QuorumCheck {
 public:
  explicit QuorumCheck(const NodeHarness& harness)
      : harness_(&harness), seen_(harness.n(), false) {}

  /// Admits `signer`'s vote. False when the signer is outside the
  /// directory, already signed, or `signature` does not cover `digest`;
  /// the whole proof is then invalid.
  [[nodiscard]] bool add(bft::ReplicaId signer, const crypto::Digest& digest,
                         const crypto::Signature& signature);
  [[nodiscard]] bool quorum() const noexcept {
    return harness_->is_quorum(weight_);
  }

 private:
  const NodeHarness* harness_;
  std::vector<bool> seen_;
  double weight_ = 0.0;
};

}  // namespace findep::replication
