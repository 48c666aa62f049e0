// NodeHarness: the protocol-neutral bottom layer of a replica.
//
// Owns everything an ordering protocol needs but that is not ordering
// logic: the network attachment, envelope authentication and signature
// verification (inline under crypto=free, offloaded onto a modeled
// runtime::WorkerPool otherwise), the outbound signing accumulator, and
// the weighted-quorum arithmetic. The ordering protocol above it
// (replication::Pbft, replication::HotStuff) receives fully
// authenticated payloads through OrderingProtocol::dispatch_payload and
// sends through broadcast()/send_to() — it never touches the wire or the
// crypto cost model directly, so a new protocol inherits the entire
// modeled-crypto machinery for free.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "bft/messages.h"
#include "net/network.h"
#include "replication/options.h"
#include "runtime/workers.h"
#include "sim/simulator.h"

namespace findep::replication {

class OrderingProtocol;

class NodeHarness {
 public:
  /// `weights[i]` is replica i's voting power; `directory[i]` its public
  /// key (both indexed by ReplicaId, same size). `keys` must match
  /// `directory[id]` and be enrolled in `registry`. Validates `options`
  /// for `kind` (the shared validator — one set of checks for every
  /// protocol).
  NodeHarness(OrderingProtocol& protocol, bft::ReplicaId id,
              std::vector<double> weights,
              std::vector<crypto::PublicKey> directory,
              crypto::KeyRegistry& registry, crypto::KeyPair keys,
              net::SimNetwork& network, ReplicaOptions options,
              Protocol kind);

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

  [[nodiscard]] bft::ReplicaId id() const noexcept { return id_; }
  /// Cluster size (weights and directory share it).
  [[nodiscard]] std::size_t n() const noexcept { return weights_.size(); }
  [[nodiscard]] double weight_of(bft::ReplicaId r) const;
  [[nodiscard]] double vote_weight(
      const std::map<bft::ReplicaId, double>& votes) const;
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

  /// Messages rejected because they arrived corrupted (the simulated
  /// equivalent of a signature-verification failure over flipped wire
  /// bits). A nonzero count is direct evidence the fault was *detected*.
  [[nodiscard]] std::uint64_t corrupted_rejected() const noexcept {
    return corrupted_rejected_;
  }
  /// Verification tasks submitted to the worker pool (0 under
  /// crypto=free, which never builds a pool).
  [[nodiscard]] std::uint64_t verify_tasks() const noexcept {
    return verify_pool_ != nullptr ? verify_pool_->stats().submitted : 0;
  }
  /// Pool tasks shed by the stale check (dead-view traffic dropped at
  /// dequeue without consuming worker time).
  [[nodiscard]] std::uint64_t verify_dropped_stale() const noexcept {
    return verify_pool_ != nullptr ? verify_pool_->stats().dropped_stale
                                   : 0;
  }

 private:
  void on_message(const net::Message& raw);
  /// Modeled-crypto inbound path: queues envelope verification on the
  /// worker pool (critical lane for consensus/recovery traffic,
  /// speculative for client requests; protocol-declared stale work shed
  /// on dequeue) and dispatches from the in-order completion.
  void offload_verify(const net::Message& raw, const bft::Envelope& env);

  OrderingProtocol* protocol_;
  bft::ReplicaId id_;
  std::vector<double> weights_;
  std::vector<crypto::PublicKey> directory_;
  double total_weight_ = 0.0;
  crypto::KeyRegistry* registry_;
  crypto::KeyPair keys_;
  net::SimNetwork* network_;
  ReplicaOptions options_;

  std::uint64_t corrupted_rejected_ = 0;
  bool started_ = false;

  /// Modeled verification cores; null under crypto=free (the historical
  /// inline path, bit-identical to pre-cost-model builds).
  std::unique_ptr<runtime::WorkerPool> verify_pool_;
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
