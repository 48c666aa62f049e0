// Chained HotStuff over the layered replication core.
//
// The pipelined, linear-communication lane of the protocol axis: one
// block proposal per round, each block extending the highest known
// quorum certificate (parent == justify.block_digest), votes sent to the
// *next* round's leader who aggregates them into a QC — so a decision
// costs O(n) messages where PBFT's all-to-all prepare/commit costs
// O(n²). Commit uses the two-chain rule (the DiemBFT / HotStuff-2
// refinement of the original 3-chain): a block b0 is committed once two
// QCs span consecutive rounds above it — b1 with b1.justify == QC(b0)
// and b1.round == b0.round + 1, certified by QC(b1). Safety comes from
// the vote rule: a replica votes for b only if b.justify is at least as
// fresh as the highest QC it has adopted (and at most once per round),
// so any block certified after a committed two-chain must descend from
// it. Two-chain matters for liveness under crashed leaders, not just
// latency: with a fixed leader = round mod n rotation, a commit needs a
// run of *consecutive* live-leader rounds (proposers of r and r+1 plus
// the collector of QC(r+1) at r+2 — three in a row), and three is the
// longest run some <1/3 crash patterns leave standing (e.g. replicas
// {2,5} dead in n=7 caps the live run at {6,0,1}); the 3-chain rule
// would need four and stall forever. Leadership rotates round-robin with
// an exponential-backoff pacemaker: a round that makes no progress times
// out, the timeout (carrying the sender's high-QC) is broadcast, a
// > 2/3 timeout quorum licenses the new round's leader to propose
// without a fresh QC, and a replica seeing > 1/3 timeout weight for a
// later round joins the timeout itself (amplification) even when its
// own pacemaker is idle.
//
// Reuses the shared layers end to end: NodeHarness for authentication,
// modeled crypto and weighted quorums; bft::Batch, the batch_size knob
// and kBatchTimeout for batching (the cut is its own: the pending set
// minus what the uncommitted chain already carries); the OrderingProtocol
// base for the replicated log, the execution unroll and the checkpoint /
// state-transfer handlers — a HotStuff checkpoint proof is verifiable by
// a PBFT verifier and vice versa, because both hash the same
// executed-entry log.
//
// Byzantine behaviours mirror the PBFT lane where they translate:
//   kSilent     — never sends anything.
//   kEquivocate — as leader, proposes conflicting blocks for the same
//                 round to different halves of the cluster. The QC rules
//                 reject this structurally: honest votes split between
//                 two digests, neither reaches quorum, and the round
//                 times out onto the next leader.
//   kCollude    — equivocates as leader and votes for *every* proposal
//                 it hears, ignoring SafeNode and its own vote history.
//   kCensor     — drops odd-id requests at ingress.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_set>
#include <vector>

#include "bft/messages.h"
#include "net/network.h"
#include "replication/protocol.h"
#include "sim/simulator.h"

namespace findep::replication {

using bft::HsBlock;
using bft::HsBlockRequest;
using bft::HsBlockResponse;
using bft::HsProposal;
using bft::HsQcNotice;
using bft::HsSignedVote;
using bft::HsTimeout;
using bft::HsVote;
using bft::QuorumCert;
using Round = std::uint64_t;

class HotStuff final : public OrderingProtocol {
 public:
  /// Same contract as replication::Pbft: `weights[i]` is replica i's
  /// voting power, `directory[i]` its public key, `keys` must match
  /// `directory[id]` and be enrolled in `registry`.
  HotStuff(ReplicaId id, std::vector<double> weights,
           std::vector<crypto::PublicKey> directory,
           crypto::KeyRegistry& registry, crypto::KeyPair keys,
           net::SimNetwork& network, ReplicaOptions options);

  [[nodiscard]] Round round() const noexcept { return round_; }
  [[nodiscard]] const QuorumCert& high_qc() const noexcept {
    return high_qc_;
  }
  [[nodiscard]] SeqNum committed_height() const noexcept {
    return committed_height_;
  }
  [[nodiscard]] ReplicaId leader_of(Round r) const noexcept {
    return static_cast<ReplicaId>(r % harness_.n());
  }
  [[nodiscard]] bool is_leader() const noexcept {
    return leader_of(round_) == id();
  }

  // --- harness → protocol ----------------------------------------------
  void dispatch_payload(const net::Envelope& wire, net::NodeId raw_from,
                        std::uint64_t raw_bytes) override;
  [[nodiscard]] bool verify_stale(const Payload& payload) const override;

 private:
  /// Vote accumulator for one (round, block digest) pair: who voted,
  /// and their signed votes in arrival order, which become the QC's
  /// proof (sorted by voter) when quorum weight is reached.
  struct VoteSet {
    explicit VoteSet(std::size_t n) : voters(n) {}
    SeqNum height = 0;
    VoteTally voters;
    std::vector<HsSignedVote> votes;
  };

  // --- dispatch ---------------------------------------------------------
  /// Relays a client request to the current and next leaders.
  void on_request(const Request& request, net::NodeId from,
                  const net::Envelope& wire, std::uint64_t bytes) override;
  void on_proposal(const HsProposal& p, ReplicaId from);
  void on_vote(const HsVote& v, ReplicaId from,
               const crypto::Signature& signature);
  void on_timeout(const HsTimeout& t, ReplicaId from);
  void on_qc_notice(const HsQcNotice& notice);
  void on_block_request(const HsBlockRequest& req, ReplicaId from);
  void on_block_response(const HsBlockResponse& resp);

  // --- chain / safety ---------------------------------------------------
  /// Verifies a QC: a QuorumCheck over voters whose signatures cover
  /// HsVote{round, height, block_digest}. The genesis QC (round 0) is
  /// the one vote-free certificate.
  [[nodiscard]] bool verify_qc(const QuorumCert& qc) const;
  /// Adopts `qc` as high-QC if it certifies a later round, then runs the
  /// commit rule. Returns true if high-QC advanced.
  bool update_high_qc(const QuorumCert& qc);
  /// The two-chain commit rule: commit the block high_qc_'s justify
  /// certifies when the two certificates span consecutive rounds.
  /// Missing ancestors trigger a block fetch.
  void try_commit();
  /// SafeNode: may this replica vote for `b`?
  [[nodiscard]] bool safe_to_vote(const HsBlock& b) const;
  /// `digest` is b.digest(), which the caller has already computed.
  void store_block(const HsBlock& b, const crypto::Digest& digest);
  /// Executes the committed chain up through `block` (ascending height),
  /// deduplicating request ids exactly like the PBFT batch unroll.
  void commit_chain(const HsBlock& block);
  void request_missing_block(const crypto::Digest& digest);

  // --- proposing --------------------------------------------------------
  /// Proposes in round_ if this replica leads it, has not proposed in it
  /// yet, and holds the license to (a QC from the previous round or a
  /// timeout quorum for this one). A partial batch waits out the batch
  /// timer unless `cut_partial` (the timer's own call). Returns true if a
  /// proposal (or a deferred partial-batch cut) is in flight.
  bool try_propose(bool cut_partial = false);
  void propose(Batch batch);
  /// Request ids already carried by the uncommitted chain from high_qc_
  /// down (a new proposal must not repeat them).
  [[nodiscard]] std::unordered_set<std::uint64_t> chain_ids() const;
  /// Requests pending here and absent from both the executed log and the
  /// uncommitted chain, in arrival order.
  [[nodiscard]] std::vector<Request> eligible_requests() const;
  /// True while the certified chain still carries uncommitted real
  /// batches — leaders must keep extending it (with no-op blocks if
  /// necessary) until the two-chain rule flushes them.
  [[nodiscard]] bool needs_flush() const;

  // --- pacemaker --------------------------------------------------------
  /// Enters `r` (if beyond the current round) driven by a QC or timeout
  /// quorum; QC-driven entry resets the backoff.
  void enter_round(Round r, bool via_qc);
  /// Arms the round timer iff there is unfinished work (pending requests
  /// or an unflushed chain); disarms it otherwise. A quiescent cluster
  /// keeps no timer, so drained runs terminate.
  void ensure_pacemaker();
  void round_expired();

  /// Drops committed blocks at and below the stable checkpoint.
  void prune_blocks();
  /// The lane's tail after the shared handler adopted a transferred
  /// state: catch the chain up to the adopted horizon.
  void on_state_adopted();

  /// Block store keyed by digest: the uncommitted chain suffix plus the
  /// genesis anchor (committed blocks are pruned at checkpoints).
  std::map<crypto::Digest, HsBlock> blocks_;
  crypto::Digest genesis_digest_;

  QuorumCert high_qc_;
  Round round_ = 1;
  Round last_voted_round_ = 0;
  Round last_proposed_round_ = 0;
  /// Highest round for which this replica holds a > 2/3 timeout quorum
  /// (its license to propose without a fresh QC).
  Round tc_round_ = 0;

  SeqNum committed_height_ = 0;

  /// round -> block digest -> vote accumulator (leader side).
  std::map<Round, std::map<crypto::Digest, VoteSet>> votes_;
  /// round -> timeout voters. Every replica accumulates these (timeouts
  /// are broadcast): leaders watch for the > 2/3 quorum that licenses
  /// proposing, everyone watches for the > 1/3 weight that triggers
  /// timeout amplification.
  std::map<Round, VoteTally> timeout_votes_;
  /// Highest round this replica has broadcast its own HsTimeout for
  /// (pacemaker expiry or amplification join) — one announcement per
  /// round.
  Round timeout_sent_round_ = 0;

  /// Current pacemaker backoff multiplier (1 after QC progress, grows by
  /// kPacemakerBackoff per expiry up to kPacemakerMaxBackoff).
  double backoff_ = 1.0;

  /// Digests already asked for via HsBlockRequest (one ask per orphan).
  std::set<crypto::Digest> requested_blocks_;

  sim::Timer round_timer_{sim()};
  sim::Timer batch_timer_{sim()};
};

}  // namespace findep::replication
