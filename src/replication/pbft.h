// The PBFT ordering protocol over the layered replication core.
//
// Implements the normal three-phase case (pre-prepare / prepare / commit)
// over *request batches* (one consensus instance orders a block of client
// requests; see ReplicaOptions::batch_size), checkpointing, and view
// changes with NEW-VIEW proof verification, using *weighted* quorums:
// each replica carries a voting power w_i and certificates require
// strictly more than 2/3 of the total power (for unit weights and
// n = 3f+1 this is exactly the classic 2f+1). Safety holds while
// Byzantine power ≤ 1/3 of total — precisely the budget the diversity
// core bounds via the configuration distribution.
//
// Byzantine behaviours built in for fault-injection experiments:
//   kSilent     — never sends anything (fail-stop from the start).
//   kEquivocate — as primary, proposes conflicting requests for the same
//                 sequence number to different halves of the cluster.
//   kCollude    — kEquivocate as primary, and additionally lends its
//                 commit weight to *every* digest it hears of (prepare +
//                 commit without conflict checks). A coalition of
//                 colluders with power > 1/3 of the total can drive two
//                 conflicting commit certificates through — the exact
//                 safety threshold of the paper — whereas any weaker
//                 coalition (and any number of plain equivocators)
//                 cannot.
//   kCensor     — as primary, silently ignores requests with odd ids
//                 (a client-selective starvation attack: the cluster
//                 keeps making progress on everything else).
//
// Checkpoint-anchored state transfer (DESIGN.md "State transfer"): a
// replica that observes credible evidence of committed state above its
// own execution horizon — a stable-checkpoint quorum it adopted, or
// > 1/3 of voting power claiming checkpoints it has not executed —
// fetches the missing log suffix from a random up-to-date peer, verifies
// the checkpoint digest against the signed vote quorum carried in the
// response, and resumes normal execution. The log, the checkpoint and
// state-transfer handlers and the fetch machine are the OrderingProtocol
// base's, shared with every other protocol; this class keeps only the
// ordering state and runs its own tail when the stable checkpoint
// advances or a transferred state is adopted.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bft/messages.h"
#include "net/network.h"
#include "replication/protocol.h"
#include "sim/simulator.h"

namespace findep::replication {

class Pbft final : public OrderingProtocol {
 public:
  /// `weights[i]` is replica i's voting power; `directory[i]` its public
  /// key (both indexed by ReplicaId, same size). `keys` must match
  /// `directory[id]` and be enrolled in `registry`.
  Pbft(ReplicaId id, std::vector<double> weights,
       std::vector<crypto::PublicKey> directory,
       crypto::KeyRegistry& registry, crypto::KeyPair keys,
       net::SimNetwork& network, ReplicaOptions options);

  [[nodiscard]] View view() const noexcept { return view_; }

  [[nodiscard]] ReplicaId primary_of(View v) const noexcept {
    return static_cast<ReplicaId>(v % harness_.n());
  }
  [[nodiscard]] bool is_primary() const noexcept {
    return primary_of(view_) == id();
  }

  // --- harness → protocol ----------------------------------------------
  void dispatch_payload(const Envelope& env, net::NodeId raw_from,
                        std::uint64_t raw_bytes) override;
  [[nodiscard]] runtime::WorkerPool::StaleCheck verify_stale_check(
      const Payload& payload) const override;

 private:
  /// One digest's votes in one phase of a slot.
  using DigestTally = std::pair<crypto::Digest, VoteTally>;

  /// Consensus state of one sequence number. One slot agrees on one
  /// *batch*; execution unrolls the batch into per-request log entries.
  struct Slot {
    bool have_preprepare = false;
    Batch batch;
    crypto::Digest batch_digest;
    /// Votes per digest (handles out-of-order arrival and equivocation).
    /// A slot hears of one digest, or two under equivocation or
    /// collusion, so the list is searched linearly.
    std::vector<DigestTally> prepare_votes;
    std::vector<DigestTally> commit_votes;
    bool sent_prepare = false;
    bool sent_commit = false;
    bool prepared = false;
    View prepared_view = 0;
    bool committed = false;
  };

  // --- dispatch ---------------------------------------------------------
  /// Forwards to the primary if needed and arms the liveness timer.
  void on_request(const Request& request, net::NodeId from) override;
  void on_preprepare(const PrePrepare& pp, ReplicaId from);
  void on_prepare(const Prepare& p, ReplicaId from);
  void on_commit(const Commit& c, ReplicaId from);
  /// `env` carries a ViewChange; it is kept whole as a NEW-VIEW proof.
  void on_viewchange(const Envelope& env);
  void on_newview(const NewView& nv, ReplicaId from);

  // --- normal case ------------------------------------------------------
  void enqueue_for_proposal(const Request& request);
  void cut_batch();
  /// Re-attempts a batch cut that the high-watermark bound deferred.
  /// Called wherever the stable checkpoint advances.
  void retry_deferred_cut();
  void propose(Batch batch);
  void accept_preprepare(const PrePrepare& pp);
  void maybe_prepared(SeqNum seq);
  void maybe_committed(SeqNum seq);
  void execute_ready();
  /// Drops consensus state (slots, collude marks) at and below `seq`.
  void prune_to(SeqNum seq);

  // --- view change ------------------------------------------------------
  /// Re-dispatches the buffered future-view traffic; what is still ahead
  /// of the installed view is buffered again.
  void replay_future_messages();
  void start_view_change(View target);
  void maybe_assemble_new_view(View target);
  [[nodiscard]] static std::vector<PrePrepare> compute_reproposals(
      View target, const std::vector<SignedViewChange>& proofs);
  /// Verifies a NEW-VIEW's embedded view-change quorum and recomputed
  /// re-proposals (shared by on_newview and state-transfer adoption —
  /// NEW-VIEW is self-certifying, so it can be relayed).
  [[nodiscard]] bool verify_new_view(const NewView& nv) const;
  void install_new_view(const NewView& nv);
  /// The lane's tail after the shared handler adopted a transferred
  /// state: prune, install a relayed NEW-VIEW or abandon a lone view
  /// change, and resume the normal case.
  void on_state_adopted(const StateResponse& resp);

  // --- helpers ----------------------------------------------------------
  /// Records `voter`'s vote for `digest` in one phase's tallies.
  void add_vote(std::vector<DigestTally>& votes, const crypto::Digest& digest,
                ReplicaId voter) const;
  /// The weight behind `digest` in one phase's tallies (0 if unheard of).
  [[nodiscard]] double digest_weight(const std::vector<DigestTally>& votes,
                                     const crypto::Digest& digest) const;
  /// Registers a liveness deadline for a request id that just became
  /// pending (no-op if one is already tracked — retransmissions must not
  /// push a starved request's deadline back).
  void track_request_deadline(std::uint64_t request_id);
  /// Rebases every tracked deadline to now + request_timeout (view
  /// installation and state-transfer adoption grant the new regime a
  /// fresh timeout, as the single-timer design did).
  void refresh_request_deadlines();
  void arm_request_timer();
  void request_timer_fired();
  /// kCollude: endorse (prepare + commit) a digest we heard of, once.
  void collude_endorse(View v, SeqNum seq, const crypto::Digest& digest);

  View view_ = 0;
  bool in_view_change_ = false;
  View pending_view_ = 0;
  SeqNum next_seq_ = 1;  // primary's allocator
  std::map<SeqNum, Slot> slots_;
  std::unordered_map<std::uint64_t, SeqNum> assigned_;  // primary only

  /// Primary-side batching: requests accepted but not yet proposed, in
  /// arrival order, plus their ids for O(1) duplicate suppression.
  std::vector<Request> batch_queue_;
  std::unordered_map<std::uint64_t, bool> queued_ids_;
  /// A batch cut is waiting for the stable checkpoint to advance
  /// (high-watermark back-pressure).
  bool cut_deferred_ = false;

  std::map<View, std::vector<SignedViewChange>> viewchange_votes_;
  View newview_assembled_for_ = 0;
  /// The NEW-VIEW we last installed, relayed inside state responses so a
  /// requester that missed the view change can re-verify and adopt it.
  std::shared_ptr<const NewView> last_new_view_;

  /// Normal-case messages that arrived for a view we have not installed
  /// yet (we lag behind a view change); replayed after installation.
  /// Replaces the retransmission machinery of a real deployment.
  std::vector<Envelope> future_messages_;

  /// Per-request liveness deadlines in arrival order. Deadlines are
  /// nondecreasing (every entry is its arm-time + request_timeout), so
  /// one simulator timer armed for the front entry suffices; entries
  /// whose request already executed are popped lazily. This is what
  /// detects client-selective starvation: progress on *other* requests
  /// never pushes a starved request's deadline back.
  std::deque<std::pair<double, std::uint64_t>> request_deadlines_;
  /// kCollude bookkeeping: digests already endorsed per seq (pruned with
  /// slots_ at checkpoints).
  std::map<SeqNum, std::vector<crypto::Digest>> colluded_;

  sim::Timer request_timer_{sim()};
  sim::Timer viewchange_timer_{sim()};
  sim::Timer batch_timer_{sim()};
};

}  // namespace findep::replication
