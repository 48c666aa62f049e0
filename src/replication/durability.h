// Shared durability layer: checkpointing and checkpoint-anchored state
// transfer, reusable by any ordering protocol.
//
// CheckpointStore tracks checkpoint votes (digest-keyed, one vote per
// sender per seq, watermark-windowed against Byzantine bloat), adopts
// stable checkpoints with their signed vote quorum as proof, and decides
// when this replica should emit its own checkpoint.
//
// StateFetchMachine is the claims-driven fetch loop from the churn work:
// it records peers' signed claims of stable/executed seqs, detects when
// > 1/3 of voting power credibly certifies state above our execution
// horizon (so at least one *honest* peer can prove a stable checkpoint
// there), and runs the grace → fetch → retry-elsewhere timer machine.
// OrderingProtocol supplies two hooks: the log's execution horizon and
// the actual StateRequest send; everything else — including the
// replica-local RNG for peer choice — lives here. The Checkpoint /
// StateRequest / StateResponse handlers that drive both classes are the
// OrderingProtocol base's (protocol.cpp), so PBFT and HotStuff share one
// tested recovery path.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "bft/messages.h"
#include "replication/harness.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace findep::replication {

class CheckpointStore {
 public:
  explicit CheckpointStore(const NodeHarness& harness)
      : harness_(&harness) {}

  /// Decides whether this replica should broadcast its own checkpoint at
  /// `last_executed`: returns the seq to checkpoint (recording it as
  /// sent), or 0 when below the interval threshold or already sent.
  [[nodiscard]] bft::SeqNum maybe_emit(bft::SeqNum last_executed,
                                       bft::SeqNum interval);

  /// Tracks a peer's signed checkpoint vote. Votes are only *tracked*
  /// within a bounded window above the stable checkpoint (allowing for
  /// our own in-flight execution horizon, which can legitimately run
  /// ahead of stability); anything beyond is dropped — a Byzantine peer
  /// advertising arbitrary far-future seqs cannot bloat the vote map.
  /// One vote per sender per seq (first wins). Returns true when the
  /// vote completed a quorum and the stable checkpoint advanced (the
  /// proof is the signed vote quorum); the caller prunes its own
  /// consensus state in response.
  [[nodiscard]] bool on_vote(const bft::Checkpoint& cp, bft::ReplicaId from,
                             const crypto::Signature& signature,
                             bft::SeqNum last_executed,
                             bft::SeqNum interval);

  /// State-transfer adoption: takes over a proven remote checkpoint (and
  /// its proof, so we can serve transfers ourselves) when it is at or
  /// above the current stable seq, retires any pending own checkpoint at
  /// or below the result, and prunes dead votes.
  void maybe_adopt(const bft::Checkpoint& checkpoint,
                   const std::vector<bft::SignedCheckpoint>& proof);

  [[nodiscard]] bft::SeqNum stable() const noexcept { return stable_; }
  [[nodiscard]] const crypto::Digest& digest() const noexcept {
    return digest_;
  }
  /// The signed vote quorum that made stable() stable — what a
  /// StateResponse hands a requester as proof.
  [[nodiscard]] const std::vector<bft::SignedCheckpoint>& proof()
      const noexcept {
    return proof_;
  }

 private:
  /// The votes at one seq for one state digest: who voted, and their
  /// signed votes in arrival order (sorted by sender into the proof).
  struct DigestVotes {
    crypto::Digest state_digest;
    VoteTally voters;
    std::vector<bft::SignedCheckpoint> votes;
  };

  void prune_votes();

  const NodeHarness* harness_;
  bft::SeqNum stable_ = 0;
  crypto::Digest digest_;
  std::vector<bft::SignedCheckpoint> proof_;
  bft::SeqNum last_sent_ = 0;
  /// seq -> the votes for each state digest claimed there (digest-keyed
  /// so a Byzantine replica cannot contribute to a checkpoint it does
  /// not actually hold). One vote per sender per seq bounds each list
  /// at n digests; honest voters name one.
  std::map<bft::SeqNum, std::vector<DigestVotes>> votes_;
};

class StateFetchMachine {
 public:
  struct Hooks {
    /// The protocol's execution horizon (its last executed seq).
    std::function<bft::SeqNum()> horizon;
    /// Sends StateRequest{horizon} to the chosen peer and counts it.
    std::function<void(bft::ReplicaId)> send_request;
  };

  StateFetchMachine(const NodeHarness& harness, Hooks hooks);

  /// Records a peer's signed claim of a stable/executed seq (checkpoint
  /// votes, view-change stable fields, new-view proofs, QC heights). One
  /// cell per replica, so Byzantine peers cannot bloat it. A raised
  /// claim may tip the > 1/3 evidence threshold, so this re-runs
  /// maybe_schedule() — the only trigger a laggard whose vote window the
  /// cluster ran past ever sees.
  void note_claim(bft::ReplicaId from, bft::SeqNum seq);

  /// The highest seq claimed at-or-above by > 1/3 of voting power beyond
  /// our execution horizon — at least one *honest* replica can prove a
  /// stable checkpoint there. 0 when we are not credibly behind.
  [[nodiscard]] bft::SeqNum catchup_target() const;

  /// Arms the grace timer when we are credibly behind and no fetch is in
  /// flight.
  void maybe_schedule();

  /// A response from `from` failed verification: retry elsewhere
  /// immediately instead of waiting out the timer (no-op when no fetch
  /// is in flight).
  void on_rejected(bft::ReplicaId from);

  /// A response was verified and adopted: stand down.
  void on_adopted();

 private:
  /// One fetch attempt: re-check the target, pick a random up-to-date
  /// peer (avoiding the previous one when possible), send StateRequest,
  /// re-arm the retry timer.
  void tick();

  const NodeHarness* harness_;
  Hooks hooks_;
  /// Highest checkpoint/stable seq each peer has credibly (signed)
  /// claimed; fixed size n. Feeds catchup_target().
  std::vector<bft::SeqNum> peer_claims_;
  /// The timer doubles as the state (armed = a fetch is scheduled or
  /// awaiting a response).
  sim::Timer timer_;
  std::optional<bft::ReplicaId> last_fetch_peer_;
  support::Rng st_rng_;
};

/// Verifies a checkpoint's signed vote quorum: votes matching the
/// checkpoint, and a QuorumCheck over their senders. The state-transfer
/// receive path's first check.
[[nodiscard]] bool verify_checkpoint_proof(
    const NodeHarness& harness, const bft::Checkpoint& checkpoint,
    const std::vector<bft::SignedCheckpoint>& proof);

/// State digest of `log` extended by `extra` (what checkpoint emission
/// hashes, and what a state response's entries must reproduce).
[[nodiscard]] crypto::Digest state_digest_over(
    const std::vector<bft::ExecutedEntry>& log,
    const std::vector<bft::ExecutedEntry>& extra);

}  // namespace findep::replication
