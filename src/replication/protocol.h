// OrderingProtocol: the seam between the protocol-neutral NodeHarness
// below and a concrete ordering protocol above, plus everything a
// replica does that is not ordering.
//
// A protocol implements exactly three inbound hooks — on_request (client
// ingress, reached through the lane's own dispatch), dispatch_payload
// (an authenticated envelope) and verify_stale_check (may this payload
// be shed from the verify queue?) — and drives everything else through
// the harness' broadcast()/send_to() and sim::Timer. What a payload
// costs to verify is the payload's own property (bft::proof_signatures),
// not the protocol's.
//
// The rest of a replica is the same for every protocol and is
// implemented once, here (protocol.cpp): the replicated log with its
// executed-id set and pending requests, ingress admission, the
// batch-execution unroll with cross-batch dedup, the
// request-id-ordered pending walk, the equivocator's forged batch and
// even/odd split, checkpoint emission, and the Checkpoint /
// StateRequest / StateResponse handlers over the durability layer
// (durability.h). A lane calls these directly; the checkpoint and
// state-response handlers return whether the stable checkpoint advanced
// or a transferred state was adopted, and the lane then runs its own
// tail (prune its consensus state, re-drive its commit rule), so every
// send and timer arm keeps one order.
//
// The observable surface below is what the cluster harness
// (replication::Cluster, cluster.h), scenario metrics and campaign
// outcome classifier read. Every counter is in one Telemetry block
// (harness.h), the same for every protocol.
//
// To add a third protocol (e.g. an attestation-backed MinBFT using
// src/attest/ trusted counters): derive from OrderingProtocol, write the
// ordering rules (proposal, votes, leader change) and call execute_batch
// for each decided batch, add its wire messages to bft::Payload (and any
// proof-carrying one to bft::proof_signatures), and register the axis
// value in parse_protocol and in the Cluster factory (cluster.cpp).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bft/messages.h"
#include "net/network.h"
#include "replication/durability.h"
#include "replication/harness.h"
#include "runtime/workers.h"
#include "sim/simulator.h"

/// Protocol event tracing for debugging stalled clusters: set
/// FINDEP_BFT_TRACE=1 to log proposals, commits, view changes and
/// pacemaker expiries with simulated timestamps. Lines go to stderr, so
/// --json/--csv results on stdout stay parseable. Purely observational:
/// traced runs stay bit-identical to silent ones.
#define FINDEP_BFT_TRACE(...)                       \
  do {                                              \
    if (::findep::replication::trace_enabled()) {   \
      std::fprintf(stderr, __VA_ARGS__);            \
    }                                               \
  } while (0)

namespace findep::replication {

/// True when FINDEP_BFT_TRACE is set (read once per process).
[[nodiscard]] inline bool trace_enabled() {
  static const bool enabled = std::getenv("FINDEP_BFT_TRACE") != nullptr;
  return enabled;
}

// The wire/protocol vocabulary stays in findep::bft (the message set is
// shared by every protocol); pull it in so protocol implementations read
// naturally.
using bft::Batch;
using bft::Checkpoint;
using bft::Commit;
using bft::Envelope;
using bft::ExecutedEntry;
using bft::NewView;
using bft::Payload;
using bft::PrePrepare;
using bft::Prepare;
using bft::PreparedEntry;
using bft::ReplicaId;
using bft::Request;
using bft::SeqNum;
using bft::SignedCheckpoint;
using bft::SignedViewChange;
using bft::StateRequest;
using bft::StateResponse;
using bft::View;
using bft::ViewChange;

class OrderingProtocol {
 public:
  virtual ~OrderingProtocol() = default;
  OrderingProtocol(const OrderingProtocol&) = delete;
  OrderingProtocol& operator=(const OrderingProtocol&) = delete;

  /// Attaches the network handler. Call once before the simulation runs.
  void start() { harness_.start(); }
  /// Receives each entry as it is appended to the log, by execute_batch
  /// and by a state-transfer adoption alike, inside the simulator step
  /// that appends it. The Cluster installs one per replica.
  using ExecutionListener = std::function<void(const ExecutedEntry&)>;
  void set_execution_listener(ExecutionListener listener) {
    on_executed_ = std::move(listener);
  }

  // --- harness → protocol ----------------------------------------------
  /// The post-authentication half of message receipt: routes the payload
  /// to its handler. Reached through the inline crypto=free path and the
  /// worker-pool completion path alike, so offloading cannot drift from
  /// the inline dispatch semantics.
  virtual void dispatch_payload(const Envelope& env, net::NodeId raw_from,
                                std::uint64_t raw_bytes) = 0;
  /// Stale predicate for a verify-pool task carrying `payload`, or null
  /// when the payload class never goes stale.
  [[nodiscard]] virtual runtime::WorkerPool::StaleCheck verify_stale_check(
      const Payload& payload) const {
    (void)payload;
    return nullptr;
  }

  // --- observables -------------------------------------------------------
  /// A snapshot of this replica's counters.
  [[nodiscard]] Telemetry telemetry() const { return harness_.telemetry(); }

  [[nodiscard]] const std::vector<ExecutedEntry>& executed() const noexcept {
    return executed_;
  }
  [[nodiscard]] SeqNum last_executed() const noexcept {
    return last_executed_;
  }
  [[nodiscard]] SeqNum stable_checkpoint() const noexcept {
    return ckpt_.stable();
  }
  /// State digest of this replica's stable checkpoint (meaningful only
  /// when stable_checkpoint() > 0).
  [[nodiscard]] const crypto::Digest& stable_checkpoint_digest()
      const noexcept {
    return ckpt_.digest();
  }

  [[nodiscard]] ReplicaId id() const noexcept { return harness_.id(); }
  [[nodiscard]] Behavior behavior() const noexcept {
    return harness_.options().behavior;
  }

 protected:
  OrderingProtocol(ReplicaId id, std::vector<double> weights,
                   std::vector<crypto::PublicKey> directory,
                   crypto::KeyRegistry& registry, crypto::KeyPair keys,
                   net::SimNetwork& network, ReplicaOptions options,
                   Protocol kind);

  /// Client ingress: admits `request` and drives it towards a proposal.
  /// `from` is the client or a relaying replica.
  virtual void on_request(const Request& request, net::NodeId from) = 0;

  // --- the replicated log ------------------------------------------------
  /// Client-ingress admission: false for a request that already executed
  /// here, and, on a kCensor replica, for every odd id (client-selective
  /// starvation: those requests vanish at ingress).
  [[nodiscard]] bool admit(const Request& request) const;
  /// Executes `batch` as log position `seq` (last_executed_ becomes
  /// `seq`), unrolling it into per-request entries in batch order. Dedup
  /// holds across batch boundaries: a request id that already executed —
  /// in an earlier batch or earlier in this one — is skipped, so a
  /// Byzantine proposer repeating a request cannot make it execute twice.
  void execute_batch(SeqNum seq, const Batch& batch);
  /// The pending requests in request-id order. Anything that re-drives
  /// or batches them walks this instead of the hash map, whose iteration
  /// order would otherwise decide how requests pack into proposals — and
  /// with it every downstream message and byte count.
  [[nodiscard]] std::vector<const Request*> pending_by_id() const;
  /// The equivocator's second proposal: `batch` with every request
  /// forged (flipped id, rehashed operation), so it has a distinct digest.
  [[nodiscard]] static Batch forge_batch(const Batch& batch);
  /// The equivocator's split: `real` to the even replicas, `fake` to the
  /// odd ones, nothing to itself (it does not even convince itself).
  void equivocate(const Payload& real, const Payload& fake);
  /// Broadcasts this replica's checkpoint once the log has run a full
  /// checkpoint interval past the stable checkpoint.
  void maybe_checkpoint();

  // --- checkpoints and state transfer ------------------------------------
  /// Records a signed checkpoint vote (and the sender's claim of its
  /// horizon). True when the vote completed a quorum and the stable
  /// checkpoint advanced: the lane prunes its consensus state.
  bool on_checkpoint(const Checkpoint& cp, ReplicaId from,
                     const crypto::Signature& signature);
  /// Serves the log suffix up to the stable checkpoint with its vote
  /// quorum as proof, plus `new_view` (PBFT relays the NEW-VIEW it last
  /// installed so a requester that missed the view change can adopt it;
  /// null for protocols without one).
  void on_state_request(const StateRequest& sr, ReplicaId from,
                        std::shared_ptr<const NewView> new_view);
  /// Verifies a state response (checkpoint proof, suffix ranges, state
  /// digest) and adopts it: the suffix is spliced onto the log and
  /// last_executed_ jumps to the checkpoint. A bad response is counted
  /// and retried at another peer. True when adopted: the lane prunes,
  /// resumes its normal case and re-runs fetch_.maybe_schedule().
  bool on_state_response(const StateResponse& resp, ReplicaId from,
                         std::uint64_t raw_bytes);

  // --- harness shorthands --------------------------------------------------
  [[nodiscard]] const ReplicaOptions& options() const noexcept {
    return harness_.options();
  }
  [[nodiscard]] sim::Simulator& sim() const noexcept {
    return harness_.simulator();
  }
  void broadcast(Payload payload) { harness_.broadcast(std::move(payload)); }
  void send_to(net::NodeId to, Payload payload) {
    harness_.send_to(to, std::move(payload));
  }
  [[nodiscard]] double weight_of(ReplicaId r) const {
    return harness_.weight_of(r);
  }
  [[nodiscard]] double vote_weight(const VoteTally& tally) const {
    return harness_.vote_weight(tally);
  }
  [[nodiscard]] bool is_quorum(double weight) const noexcept {
    return harness_.is_quorum(weight);
  }
  [[nodiscard]] bool is_third(double weight) const noexcept {
    return harness_.is_third(weight);
  }

  NodeHarness harness_;

  /// The replicated log: every executed request in execution order, each
  /// at the seq (PBFT slot, HotStuff height) of the batch that carried it.
  std::vector<ExecutedEntry> executed_;
  SeqNum last_executed_ = 0;
  std::unordered_set<std::uint64_t> executed_ids_;
  /// Requests admitted here and not yet executed, by id.
  std::unordered_map<std::uint64_t, Request> pending_requests_;

  /// Checkpoint votes and proofs, and the claims-driven fetch machine.
  CheckpointStore ckpt_;
  StateFetchMachine fetch_;

 private:
  /// Appends `entry` to the log and hands it to the listener.
  void append_executed(const ExecutedEntry& entry);

  ExecutionListener on_executed_;
};

}  // namespace findep::replication
