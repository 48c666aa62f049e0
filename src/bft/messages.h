// PBFT message set (Castro–Liskov '99/'02, the protocol the paper's BFT
// baseline numbers assume), with voting-*power* quorums so the same core
// serves classic count-based BFT (unit weights) and stake/hash-weighted
// committees (§II-A's voting-power abstraction).
//
// Every message is signed; receivers verify via the KeyRegistry before
// processing, so a Byzantine replica cannot forge others' votes — it can
// only equivocate with its own weight, which the quorum intersection
// argument charges to f.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "crypto/keys.h"
#include "crypto/sha256.h"

namespace findep::bft {

using ReplicaId = std::uint32_t;
using View = std::uint64_t;
using SeqNum = std::uint64_t;

/// A client operation (opaque payload digest + unique id).
struct Request {
  std::uint64_t id = 0;
  crypto::Digest operation;

  [[nodiscard]] crypto::Digest digest() const;
  bool operator==(const Request&) const = default;
};

/// An ordered block of client requests agreed on as one consensus
/// instance: the primary amortizes the O(n²) prepare/commit fan-out over
/// every request in the batch. The combined digest commits to count and
/// order, so two batches over the same requests in different order are
/// distinct proposals. An empty batch is the no-op filler used for
/// sequence gaps during view changes (it executes nothing).
struct Batch {
  std::vector<Request> requests;

  [[nodiscard]] std::size_t size() const noexcept { return requests.size(); }
  [[nodiscard]] bool empty() const noexcept { return requests.empty(); }
  [[nodiscard]] crypto::Digest digest() const;
  bool operator==(const Batch&) const = default;
};

struct PrePrepare {
  View view = 0;
  SeqNum seq = 0;
  Batch batch;

  [[nodiscard]] crypto::Digest digest() const;
};

struct Prepare {
  View view = 0;
  SeqNum seq = 0;
  crypto::Digest request_digest;

  [[nodiscard]] crypto::Digest digest() const;
};

struct Commit {
  View view = 0;
  SeqNum seq = 0;
  crypto::Digest request_digest;

  [[nodiscard]] crypto::Digest digest() const;
};

struct Checkpoint {
  SeqNum seq = 0;  // executions up to and including seq are stable
  crypto::Digest state_digest;

  [[nodiscard]] crypto::Digest digest() const;
};

/// A checkpoint vote together with its sender's signature. Replicas keep
/// the signed votes of the quorum that made their checkpoint stable so a
/// state-transfer response can *prove* the checkpoint to the requester
/// (the requester re-verifies every vote, exactly like NEW-VIEW proofs).
struct SignedCheckpoint {
  ReplicaId sender = 0;
  Checkpoint checkpoint;
  crypto::Signature signature;
};

/// One executed log entry (what the state machine saw). Also the replay
/// unit of state transfer: a response carries the responder's committed
/// log suffix as ExecutedEntry records, one per request, each tagged with
/// the slot (batch) seq it executed under.
struct ExecutedEntry {
  SeqNum seq = 0;
  Request request;

  bool operator==(const ExecutedEntry&) const = default;
};

/// A prepared certificate entry carried inside a view change: the replica
/// prepared `batch` at (view, seq). View changes operate at batch
/// granularity — a prepared batch survives into the new view whole, so
/// safety at the request level follows from safety at the batch level.
struct PreparedEntry {
  View view = 0;
  SeqNum seq = 0;
  Batch batch;
};

struct ViewChange {
  View new_view = 0;
  SeqNum last_executed = 0;
  std::vector<PreparedEntry> prepared;

  [[nodiscard]] crypto::Digest digest() const;
};

class Envelope;

/// A view-change message together with its sender's signature, embeddable
/// as a proof inside NEW-VIEW (receivers re-verify each one, so a
/// Byzantine new primary cannot invent the view-change quorum or alter
/// what was prepared). It is lifted from the VIEW-CHANGE envelope that
/// carried it and keeps the digest that envelope bound, so neither the
/// NEW-VIEW digest nor a proof check rehashes the prepared batches.
class SignedViewChange {
 public:
  /// `env` must carry a ViewChange.
  explicit SignedViewChange(const Envelope& env);

  [[nodiscard]] ReplicaId sender() const noexcept { return sender_; }
  [[nodiscard]] const ViewChange& vc() const noexcept { return vc_; }
  [[nodiscard]] const crypto::Signature& signature() const noexcept {
    return signature_;
  }
  /// vc().digest(), computed once when the sender signed it.
  [[nodiscard]] const crypto::Digest& digest() const noexcept {
    return digest_;
  }

 private:
  ReplicaId sender_ = 0;
  ViewChange vc_;
  crypto::Signature signature_;
  crypto::Digest digest_;
};

struct NewView {
  View view = 0;
  /// The view-change quorum justifying this view.
  std::vector<SignedViewChange> proofs;
  /// Re-proposals the new primary derived from the proofs; receivers
  /// recompute them from `proofs` and reject mismatches.
  std::vector<PrePrepare> reproposals;

  [[nodiscard]] crypto::Digest digest() const;
};

/// Checkpoint-anchored state transfer, request side: "I have executed up
/// to `last_executed`; send me everything you can prove stable above it."
struct StateRequest {
  SeqNum last_executed = 0;

  [[nodiscard]] crypto::Digest digest() const;
};

/// State-transfer response. Everything in it is verifiable by the
/// requester without trusting the responder:
///   - `checkpoint` + `proof`: the responder's stable checkpoint with the
///     signed vote quorum that made it stable;
///   - `entries`: the committed log suffix in (`request_from`,
///     `checkpoint.seq`], whose replay onto the requester's own log must
///     reproduce `checkpoint.state_digest` (wrong or tampered entries are
///     rejected wholesale and the requester retries elsewhere);
///   - `new_view`: the NEW-VIEW the responder last installed, if any, so
///     a replica that also missed view changes during its outage can
///     re-verify and adopt the current view (NEW-VIEW is self-certifying
///     through its embedded view-change quorum). Shared, not copied: a
///     responder hands out the NEW-VIEW it keeps, and holding it by
///     pointer stops StateResponse from being the widest payload, which
///     sizes every network body.
struct StateResponse {
  SeqNum request_from = 0;
  Checkpoint checkpoint;
  std::vector<SignedCheckpoint> proof;
  std::vector<ExecutedEntry> entries;
  std::shared_ptr<const NewView> new_view;

  [[nodiscard]] crypto::Digest digest() const;
};

// --- HotStuff lane (chained quorum-certificate protocol) -------------------
//
// The pipelined, linear-communication lane shares the request/batch/
// checkpoint/state-transfer types above and adds the chained-HotStuff wire
// set: one proposal per round extending the highest known quorum
// certificate, votes sent to the *next* round's leader (who aggregates
// them into a QC instead of every replica hearing every vote — this is
// what turns the O(n²) prepare/commit fan-out into O(n) per decision),
// and timeout messages carrying the sender's high-QC so a new leader can
// always extend the freshest certified block.

/// One vote signature inside a quorum certificate. The signature is over
/// the voter's HsVote digest, so a QC is re-verifiable by anyone holding
/// the directory (exactly like NEW-VIEW / checkpoint proof quorums).
struct HsSignedVote {
  ReplicaId voter = 0;
  crypto::Signature signature;
};

/// Quorum certificate: > 2/3 of voting power signed HsVote{round, height,
/// block_digest}. The genesis QC (round 0, height 0) is the one
/// certificate that carries no votes — every chain hangs off it.
struct QuorumCert {
  std::uint64_t round = 0;
  SeqNum height = 0;
  crypto::Digest block_digest;
  std::vector<HsSignedVote> votes;

  [[nodiscard]] crypto::Digest digest() const;
};

/// One chain block: a batch proposed at (round, height) extending the
/// block certified by `justify` (parent == justify.block_digest — the
/// chained variant always extends the freshest QC). Height is the
/// execution sequence number; round advances past height on timeouts.
struct HsBlock {
  std::uint64_t round = 0;
  SeqNum height = 0;
  crypto::Digest parent;
  QuorumCert justify;
  Batch batch;

  [[nodiscard]] crypto::Digest digest() const;
};

struct HsProposal {
  HsBlock block;

  [[nodiscard]] crypto::Digest digest() const;
};

/// A replica's vote for the block proposed at `round`, sent to the leader
/// of round + 1 (leader-collects-votes: the quadratic all-to-all of PBFT
/// prepare/commit collapses to one linear collection per round).
struct HsVote {
  std::uint64_t round = 0;
  SeqNum height = 0;
  crypto::Digest block_digest;

  [[nodiscard]] crypto::Digest digest() const;
};

/// Pacemaker timeout for `round`, sent to that round's leader. Carries the
/// sender's highest QC; a leader collecting a > 2/3 timeout quorum learns
/// the freshest certified block any honest replica is locked behind and
/// may propose extending it.
struct HsTimeout {
  std::uint64_t round = 0;
  QuorumCert high_qc;

  [[nodiscard]] crypto::Digest digest() const;
};

/// Orphan-chain repair: "send me the block with this digest" (a commit
/// walk hit a parent we never received). Broadcast; any peer still
/// holding the block answers.
struct HsBlockRequest {
  crypto::Digest block_digest;

  [[nodiscard]] crypto::Digest digest() const;
};

struct HsBlockResponse {
  HsBlock block;

  [[nodiscard]] crypto::Digest digest() const;
};

/// Tail-quiescence QC announcement. In leader-collects-votes HotStuff only
/// the collecting leader learns a QC formed; normally it shares it inside
/// its next proposal. When the chain has drained (no pending requests, no
/// further block to propose) there *is* no next proposal, so the final QC
/// — and with it the last commit — would be stranded at one replica while
/// everyone else waits out a pacemaker timeout. The collecting leader
/// instead broadcasts the bare QC; receivers adopt it and run the commit
/// rule, and since a notice triggers no votes or round entry, the cluster
/// quiesces symmetrically.
struct HsQcNotice {
  QuorumCert qc;

  [[nodiscard]] crypto::Digest digest() const;
};

using Payload = std::variant<Request, PrePrepare, Prepare, Commit,
                             Checkpoint, ViewChange, NewView, StateRequest,
                             StateResponse, HsProposal, HsVote, HsTimeout,
                             HsBlockRequest, HsBlockResponse, HsQcNotice>;

/// Digest of any payload alternative (dispatches on the variant).
[[nodiscard]] crypto::Digest payload_digest(const Payload& payload);

/// Signs a payload as `sender`.
[[nodiscard]] Envelope make_envelope(ReplicaId sender,
                                     const crypto::KeyPair& keys,
                                     Payload payload);

/// Envelope: sender identity + signature over the payload digest. The
/// digest is computed once, by make_envelope, and bound to the payload:
/// an envelope is read-only, so every receiver verifies the signature
/// against the bound digest instead of rehashing the payload. (A real
/// receiver hashes the bytes it got; here every receiver shares one
/// immutable body, whose hash is this value.)
class Envelope {
 public:
  [[nodiscard]] ReplicaId sender() const noexcept { return sender_; }
  [[nodiscard]] const crypto::PublicKey& sender_key() const noexcept {
    return sender_key_;
  }
  [[nodiscard]] const Payload& payload() const noexcept { return payload_; }
  /// payload_digest(payload()), the message the signature covers.
  [[nodiscard]] const crypto::Digest& digest() const noexcept {
    return digest_;
  }
  [[nodiscard]] const crypto::Signature& signature() const noexcept {
    return signature_;
  }

 private:
  friend Envelope make_envelope(ReplicaId sender,
                                const crypto::KeyPair& keys,
                                Payload payload);
  Envelope(ReplicaId sender, const crypto::KeyPair& keys, Payload payload);

  ReplicaId sender_ = 0;
  crypto::PublicKey sender_key_;
  Payload payload_;
  crypto::Digest digest_;
  crypto::Signature signature_;
};

/// Wire-size model (bytes) of a payload, used for traffic accounting.
/// Sizes are per-message header plus per-element body for the
/// variable-length payloads (batches, view changes carrying prepared
/// batches, new-views embedding their proof quorum), so `bytes_sent`
/// tracks what a real deployment would put on the wire instead of a flat
/// per-type constant. A single-request batch costs exactly what the
/// unbatched protocol charged, keeping batch_size=1 accounting identical.
[[nodiscard]] std::uint64_t payload_wire_bytes(const Payload& payload);

/// Signatures a payload embeds as a quorum proof, which a receiver
/// batch-verifies on top of the envelope signature: a NEW-VIEW's
/// view-change quorum, a state response's checkpoint votes, and the QC a
/// HotStuff proposal, block response, timeout or QC notice carries (0
/// for the vote-free genesis QC). nullopt for a payload with no proof.
[[nodiscard]] std::optional<std::size_t> proof_signatures(
    const Payload& payload);

/// Verifies the envelope signature.
[[nodiscard]] bool verify_envelope(const crypto::KeyRegistry& registry,
                                   const Envelope& envelope);

}  // namespace findep::bft
