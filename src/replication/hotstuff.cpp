#include "replication/hotstuff.h"

#include <algorithm>
#include <type_traits>
#include <variant>

#include "support/assert.h"

namespace findep::replication {

HotStuff::HotStuff(ReplicaId id, std::vector<double> weights,
                   std::vector<crypto::PublicKey> directory,
                   crypto::KeyRegistry& registry, crypto::KeyPair keys,
                   net::SimNetwork& network, ReplicaOptions options)
    : OrderingProtocol(id, std::move(weights), std::move(directory),
                       registry, std::move(keys), network,
                       std::move(options), Protocol::kHotStuff) {
  // Genesis anchor: round 0, height 0, zero parent, the one vote-free
  // QC. Every chain hangs off it; every replica derives the identical
  // digest, so genesis never travels on the wire.
  HsBlock genesis;
  genesis_digest_ = genesis.digest();
  blocks_[genesis_digest_] = genesis;
  high_qc_ = QuorumCert{0, 0, genesis_digest_, {}};
}

// --- dispatch --------------------------------------------------------------

runtime::WorkerPool::StaleCheck HotStuff::verify_stale_check(
    const Payload& payload) const {
  // Only provably dead traffic is shed: votes for a round whose QC
  // window has passed and timeouts for rounds already entered. Proposals
  // are never shed — an old proposal can still carry a block a commit
  // walk needs.
  if (const auto* v = std::get_if<HsVote>(&payload)) {
    return [this, r = v->round] { return r + 1 < round_; };
  }
  if (const auto* t = std::get_if<HsTimeout>(&payload)) {
    return [this, r = t->round] { return r < round_; };
  }
  return nullptr;
}

void HotStuff::dispatch_payload(const Envelope& env, net::NodeId raw_from,
                                std::uint64_t raw_bytes) {
  const bool from_replica = env.sender() < harness_.n();
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Request>) {
          on_request(m, raw_from);
        } else if constexpr (std::is_same_v<T, HsProposal>) {
          if (from_replica) on_proposal(m, env.sender());
        } else if constexpr (std::is_same_v<T, HsVote>) {
          if (from_replica) on_vote(m, env.sender(), env.signature());
        } else if constexpr (std::is_same_v<T, HsTimeout>) {
          if (from_replica) on_timeout(m, env.sender());
        } else if constexpr (std::is_same_v<T, HsQcNotice>) {
          if (from_replica) on_qc_notice(m);
        } else if constexpr (std::is_same_v<T, HsBlockRequest>) {
          if (from_replica) on_block_request(m, env.sender());
        } else if constexpr (std::is_same_v<T, HsBlockResponse>) {
          if (from_replica) on_block_response(m);
        } else if constexpr (std::is_same_v<T, Checkpoint>) {
          if (from_replica && on_checkpoint(m, env.sender(), env.signature())) {
            prune_blocks();
          }
        } else if constexpr (std::is_same_v<T, StateRequest>) {
          // No view-change artifact to relay: the pacemaker resynchronizes
          // rounds by itself.
          if (from_replica) on_state_request(m, env.sender(), nullptr);
        } else if constexpr (std::is_same_v<T, StateResponse>) {
          if (from_replica && on_state_response(m, env.sender(), raw_bytes)) {
            on_state_adopted();
          }
        }
        // PBFT payloads fall through: a HotStuff replica ignores the
        // other lane's traffic entirely.
      },
      env.payload());
}

// --- client ingress --------------------------------------------------------

void HotStuff::on_request(const Request& request, net::NodeId from) {
  if (!admit(request)) return;
  const bool fresh = !pending_requests_.contains(request.id);
  pending_requests_[request.id] = request;
  if (fresh && from >= harness_.n()) {
    // Client origin: relay to the current round's leader and the next —
    // leadership rotates every round, so either may cut the batch this
    // request lands in. Relays ship the client's own signed message (no
    // sign cost), like PBFT's to-the-primary relay; round_expired()
    // re-relays to later leaders if these two stall.
    const ReplicaId cur = leader_of(round_);
    const ReplicaId next = leader_of(round_ + 1);
    if (cur != id()) send_to(cur, request);
    if (next != cur && next != id()) send_to(next, request);
  }
  try_propose();
  ensure_pacemaker();
}

// --- chain / safety --------------------------------------------------------

bool HotStuff::verify_qc(const QuorumCert& qc) const {
  if (qc.round == 0) {
    // The genesis QC is structural: no votes, and it must designate the
    // genesis block every replica derives locally.
    return qc.votes.empty() && qc.height == 0 &&
           qc.block_digest == genesis_digest_;
  }
  const crypto::Digest vote_digest =
      HsVote{qc.round, qc.height, qc.block_digest}.digest();
  QuorumCheck check(harness_);
  for (const HsSignedVote& v : qc.votes) {
    if (!check.add(v.voter, vote_digest, v.signature)) return false;
  }
  return check.quorum();
}

void HotStuff::store_block(const HsBlock& b, const crypto::Digest& digest) {
  blocks_.emplace(digest, b);
  requested_blocks_.erase(digest);
}

bool HotStuff::update_high_qc(const QuorumCert& qc) {
  if (qc.round <= high_qc_.round) return false;
  high_qc_ = qc;
  try_commit();
  return true;
}

void HotStuff::try_commit() {
  // Two-chain rule: b1 is the freshest certified block (high_qc_
  // certifies it); qc0 = b1.justify certifies b0. Commit b0 when the two
  // certificates span consecutive rounds — a QC over a direct
  // consecutive-round child proves no conflicting branch can ever be
  // certified above b0 (every later quorum intersects b1's voters, whose
  // vote rule pins them to justify rounds >= b0's). A run of three
  // consecutive live leaders suffices: proposers of r and r+1 plus the
  // collector of QC(r+1).
  const auto it1 = blocks_.find(high_qc_.block_digest);
  if (it1 == blocks_.end()) {
    request_missing_block(high_qc_.block_digest);
    return;
  }
  const HsBlock& b1 = it1->second;
  const QuorumCert& qc0 = b1.justify;
  if (b1.round != qc0.round + 1) {
    return;  // a timeout broke the chain; the next two-chain will commit
  }
  if (qc0.height <= committed_height_) return;
  const auto it0 = blocks_.find(qc0.block_digest);
  if (it0 == blocks_.end()) {
    request_missing_block(qc0.block_digest);
    return;
  }
  commit_chain(it0->second);
}

void HotStuff::commit_chain(const HsBlock& block) {
  // Collect the uncommitted ancestry of `block` (itself included), then
  // execute ascending. The walk must reach committed_height_ + 1
  // contiguously; a gap means a missing ancestor — fetch it and let the
  // next QC retry the commit.
  std::vector<const HsBlock*> chain;
  const HsBlock* cur = &block;
  for (;;) {
    if (cur->height <= committed_height_) break;
    chain.push_back(cur);
    const auto pit = blocks_.find(cur->parent);
    if (pit == blocks_.end()) break;
    cur = &pit->second;
  }
  if (chain.empty()) return;
  if (chain.back()->height > committed_height_ + 1) {
    request_missing_block(chain.back()->parent);
    return;
  }
  for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
    const HsBlock& blk = **rit;
    FINDEP_BFT_TRACE("t=%.3f [%u] hs commit h=%llu round=%llu size=%zu\n",
                     sim().now(), id(), (unsigned long long)blk.height,
                     (unsigned long long)blk.round,
                     blk.batch.requests.size());
    execute_batch(blk.height, blk.batch);
  }
  committed_height_ = block.height;
  maybe_checkpoint();
  prune_blocks();
  ensure_pacemaker();
}

bool HotStuff::safe_to_vote(const HsBlock& b) const {
  if (b.round <= last_voted_round_) return false;  // one vote per round
  // Two-chain safety: vote only for proposals extending a QC at least as
  // fresh as the highest we hold. on_proposal adopts b.justify before
  // asking, so this refuses exactly the proposals extending a branch we
  // know to be superseded — which is what makes a committed two-chain
  // final (any later QC's quorum intersects the committing one in an
  // honest voter bound by this rule). Liveness after a refusal: the
  // round times out and HsTimeout carries our high-QC to the next
  // leader, which catches up before proposing.
  return b.justify.round >= high_qc_.round;
}

void HotStuff::request_missing_block(const crypto::Digest& digest) {
  if (digest == crypto::Digest{} || digest == genesis_digest_) return;
  if (requested_blocks_.contains(digest)) return;
  requested_blocks_[digest] = true;
  FINDEP_BFT_TRACE("t=%.3f [%u] hs fetch-block\n", sim().now(), id());
  broadcast(HsBlockRequest{digest});
}

void HotStuff::on_block_request(const HsBlockRequest& req, ReplicaId from) {
  if (from == id()) return;
  const auto it = blocks_.find(req.block_digest);
  if (it == blocks_.end()) return;
  send_to(from, HsBlockResponse{it->second});
}

void HotStuff::on_block_response(const HsBlockResponse& resp) {
  const HsBlock& b = resp.block;
  const crypto::Digest digest = b.digest();
  if (!blocks_.contains(digest)) {
    if (b.parent != b.justify.block_digest) return;
    if (b.height != b.justify.height + 1) return;
    if (!verify_qc(b.justify)) return;
    store_block(b, digest);
    update_high_qc(b.justify);
  }
  // Retry the commit rule even when the block was already known: the
  // copy that beat this response here (a late proposal, say) may have
  // arrived after our high-QC did, leaving the two-chain walk blocked on
  // it without anything re-driving the commit.
  try_commit();
  ensure_pacemaker();
}

// --- proposals and votes ---------------------------------------------------

void HotStuff::on_proposal(const HsProposal& p, ReplicaId from) {
  const HsBlock& b = p.block;
  if (b.round == 0) return;
  if (from != leader_of(b.round)) return;  // not that round's leader
  if (b.parent != b.justify.block_digest) return;  // must extend its QC
  if (b.height != b.justify.height + 1) return;
  if (!verify_qc(b.justify)) return;
  if (b.round > b.justify.round + 1) {
    // The leader proposed past a round gap: evidence of a timeout quorum
    // somewhere, even if we never fired one ourselves.
    harness_.counters().observed_disruption = true;
  }
  const crypto::Digest digest = b.digest();
  store_block(b, digest);
  update_high_qc(b.justify);
  // Retry the commit rule unconditionally: this block may be the one a
  // fresher QC (adopted before the proposal arrived) was blocked on, in
  // which case update_high_qc above was a no-op and would never re-walk.
  try_commit();
  // A valid proposal for round r is proof the cluster reached r: enter
  // it (QC-driven — resets the pacemaker backoff).
  enter_round(b.round, /*via_qc=*/true);

  const bool collude = options().behavior == Behavior::kCollude;
  if (collude || safe_to_vote(b)) {
    last_voted_round_ = std::max(last_voted_round_, b.round);
    // Leader-collects-votes: the vote goes to the *next* round's leader
    // only — this is the linear message pattern.
    send_to(leader_of(b.round + 1), HsVote{b.round, b.height, digest});
  }
  try_propose();
  ensure_pacemaker();
}

void HotStuff::on_vote(const HsVote& v, ReplicaId from,
                       const crypto::Signature& signature) {
  if (v.round == 0) return;
  if (leader_of(v.round + 1) != id()) return;  // not ours to collect
  if (v.round + 1 < round_) return;            // stale round
  if (high_qc_.round >= v.round) return;       // QC already formed
  VoteSet& set =
      votes_[v.round].try_emplace(v.block_digest, harness_.n()).first->second;
  set.height = v.height;
  if (set.voters.add(from)) return;  // one vote per voter (first wins)
  set.votes.push_back(HsSignedVote{from, signature});
  if (!is_quorum(vote_weight(set.voters))) return;

  // Quorum: assemble the QC in ascending voter order, so every replica
  // would build the identical proof.
  QuorumCert qc{v.round, v.height, v.block_digest, std::move(set.votes)};
  std::sort(qc.votes.begin(), qc.votes.end(),
            [](const HsSignedVote& a, const HsSignedVote& b) {
              return a.voter < b.voter;
            });
  votes_.erase(votes_.begin(), votes_.upper_bound(v.round));
  FINDEP_BFT_TRACE("t=%.3f [%u] hs qc round=%llu h=%llu\n", sim().now(),
                   id(), (unsigned long long)qc.round,
                   (unsigned long long)qc.height);
  update_high_qc(qc);
  enter_round(qc.round + 1, /*via_qc=*/true);
  if (!try_propose()) {
    // Tail quiescence: nothing to propose, so the QC — known only to us,
    // the collecting leader — would strand the final commit with every
    // peer one round behind. Announce the bare certificate; receivers
    // adopt it and run the commit rule, and the cluster drains
    // symmetrically.
    broadcast(HsQcNotice{high_qc_});
  }
  ensure_pacemaker();
}

void HotStuff::on_qc_notice(const HsQcNotice& notice) {
  if (notice.qc.round <= high_qc_.round) return;
  if (!verify_qc(notice.qc)) return;
  update_high_qc(notice.qc);
  // Round entry only — a notice triggers no vote and no proposal, so a
  // drained cluster quiesces with every replica in the same round.
  enter_round(notice.qc.round + 1, /*via_qc=*/true);
  ensure_pacemaker();
}

std::unordered_map<std::uint64_t, bool> HotStuff::chain_ids() const {
  std::unordered_map<std::uint64_t, bool> ids;
  crypto::Digest d = high_qc_.block_digest;
  for (;;) {
    const auto it = blocks_.find(d);
    if (it == blocks_.end()) break;
    const HsBlock& b = it->second;
    if (b.height <= committed_height_) break;
    for (const Request& r : b.batch.requests) {
      if (r.id != 0) ids[r.id] = true;
    }
    d = b.parent;
  }
  return ids;
}

std::vector<Request> HotStuff::eligible_requests() const {
  const std::unordered_map<std::uint64_t, bool> on_chain = chain_ids();
  std::vector<Request> out;
  for (const Request* r : pending_by_id()) {
    if (r->id != 0 &&
        (executed_ids_.contains(r->id) || on_chain.contains(r->id))) {
      continue;
    }
    out.push_back(*r);
  }
  return out;
}

bool HotStuff::needs_flush() const {
  // True while the certified chain carries uncommitted real batches: the
  // two-chain rule needs a further certified block on top of a batch
  // before it commits, so leaders must keep extending (with no-op blocks
  // when the queue is empty) until the tail flushes.
  crypto::Digest d = high_qc_.block_digest;
  for (;;) {
    const auto it = blocks_.find(d);
    if (it == blocks_.end()) return false;
    const HsBlock& b = it->second;
    if (b.height <= committed_height_) return false;
    if (!b.batch.requests.empty()) return true;
    d = b.parent;
  }
}

bool HotStuff::try_propose(bool cut_partial) {
  if (options().behavior == Behavior::kSilent) return false;
  if (leader_of(round_) != id()) return false;
  if (last_proposed_round_ >= round_) return false;
  // The license to propose in round r: a QC from r-1 (normal path) or a
  // timeout quorum for r (pacemaker path).
  if (high_qc_.round + 1 != round_ && tc_round_ < round_) return false;

  std::vector<Request> eligible = eligible_requests();
  if (eligible.empty()) {
    if (!needs_flush()) return false;  // clean chain, nothing to do
    propose(Batch{});  // a no-op block drives the two-chain
    return true;
  }
  if (!cut_partial && eligible.size() < options().batch_size) {
    // Partial batch: give stragglers batch_timeout to arrive (validated
    // < pacemaker_timeout, so the cut always lands before peers expire
    // the round). The armed timer counts as an in-flight proposal.
    if (!batch_timer_.armed()) {
      batch_timer_.arm(options().batch_timeout,
                       [this] { try_propose(/*cut_partial=*/true); });
    }
    return true;
  }
  Batch batch;
  batch.requests = std::move(eligible);
  propose(std::move(batch));
  return true;
}

void HotStuff::propose(Batch batch) {
  FINDEP_REQUIRE(leader_of(round_) == id());
  batch_timer_.cancel();
  last_proposed_round_ = round_;
  HsBlock b;
  b.round = round_;
  b.height = high_qc_.height + 1;
  b.parent = high_qc_.block_digest;
  b.justify = high_qc_;
  b.batch = std::move(batch);
  FINDEP_BFT_TRACE("t=%.3f [%u] hs propose round=%llu h=%llu size=%zu\n",
                   sim().now(), id(), (unsigned long long)b.round,
                   (unsigned long long)b.height, b.batch.requests.size());

  if (options().behavior == Behavior::kEquivocate ||
      options().behavior == Behavior::kCollude) {
    // Conflicting blocks for the same round: the real one to the even
    // half, a forged one to the odd half. Honest votes split between the
    // two digests, neither reaches quorum weight, and the round times
    // out onto the next leader — the QC rules reject equivocation
    // structurally rather than by detection.
    HsBlock forged = b;
    forged.batch = forge_batch(b.batch);
    equivocate(HsProposal{std::move(b)}, HsProposal{std::move(forged)});
    return;
  }

  broadcast(HsProposal{std::move(b)});
}

// --- pacemaker -------------------------------------------------------------

void HotStuff::enter_round(Round r, bool via_qc) {
  if (r <= round_) return;
  round_ = r;
  if (via_qc) backoff_ = 1.0;  // certified progress resyncs the pacemaker
  // Dead collection state: votes can only complete for round_ - 1 and
  // up, timeout quorums only for round_ and up.
  if (round_ >= 2) {
    votes_.erase(votes_.begin(), votes_.upper_bound(round_ - 2));
  }
  timeout_votes_.erase(timeout_votes_.begin(),
                       timeout_votes_.lower_bound(round_));
  batch_timer_.cancel();
  round_timer_.cancel();
  ensure_pacemaker();
}

void HotStuff::ensure_pacemaker() {
  if (options().behavior == Behavior::kSilent) return;
  const bool dirty = !pending_requests_.empty() || needs_flush();
  if (!dirty) {
    // Quiescent: no timer, so a drained simulation terminates instead of
    // timing out forever on an empty chain.
    round_timer_.cancel();
    return;
  }
  if (round_timer_.armed()) return;
  round_timer_.arm(options().pacemaker_timeout * backoff_,
                   [this] { round_expired(); });
}

void HotStuff::round_expired() {
  Telemetry& counters = harness_.counters();
  ++counters.disruptions;
  counters.observed_disruption = true;
  backoff_ = std::min(backoff_ * options().pacemaker_backoff,
                      options().pacemaker_max_backoff);
  ++round_;
  FINDEP_BFT_TRACE("t=%.3f [%u] hs timeout -> round=%llu backoff=%.1f\n",
                   sim().now(), id(), (unsigned long long)round_, backoff_);
  batch_timer_.cancel();
  // A response that never came may be waiting behind a pruned request
  // mark; allow re-asking after the stall.
  requested_blocks_.clear();
  // Announce the expiry to everyone (carrying our high-QC, so a leader
  // behind on certificates catches up before proposing). Broadcast, not
  // a unicast to the new leader: peers that believe the system is
  // drained (a censoring replica dropped the very request we are stuck
  // on) keep no pacemaker of their own and must hear about the stall to
  // join the timeout quorum — see the amplification rule in on_timeout.
  timeout_sent_round_ = std::max(timeout_sent_round_, round_);
  broadcast(HsTimeout{round_, high_qc_});
  // Rotation must not starve requests the new leader never saw (direct
  // submits the old leader censored or crashed on): re-relay everything
  // still pending, in request-id order so every replica re-drives
  // identically.
  if (leader_of(round_) != id()) {
    for (const Request* r : pending_by_id()) send_to(leader_of(round_), *r);
  }
  ensure_pacemaker();
}

void HotStuff::on_timeout(const HsTimeout& t, ReplicaId from) {
  harness_.counters().observed_disruption = true;
  if (t.round == 0) return;
  if (!verify_qc(t.high_qc)) return;
  update_high_qc(t.high_qc);
  // A timeout carrying a certificate older than ours marks the sender as
  // not merely slow but stranded — a healed partition, say, that starved
  // behind the split while the rest of the cluster committed and went
  // quiescent with nothing left to broadcast. Its round number says
  // nothing either way: exponential backoff can push a wedged replica's
  // round far *past* a quiescent cluster's even as its chain lags
  // behind. Hand it our chain head; it fetches the missing blocks and
  // catches up.
  if (t.high_qc.round < high_qc_.round) {
    send_to(from, HsQcNotice{high_qc_});
  }
  if (t.round < round_) {
    // Stale round: the cluster already moved past it; nothing to vote on.
    ensure_pacemaker();
    return;
  }
  VoteTally& voters =
      timeout_votes_.try_emplace(t.round, harness_.n()).first->second;
  voters.add(from);
  const double weight = vote_weight(voters);
  // Amplification (the Bracha-echo of pacemakers): more than a third of
  // the power expired t.round, so at least one *honest* replica is stuck
  // there — join its timeout even though our own pacemaker is idle. This
  // is what lets a quiescent minority drag the cluster forward: replicas
  // that dropped a request at ingress (censors) see nothing pending,
  // keep no timer, and would otherwise never help the honest holders of
  // that request reach a > 2/3 timeout quorum.
  if (options().behavior != Behavior::kSilent &&
      is_third(weight) && timeout_sent_round_ < t.round) {
    timeout_sent_round_ = t.round;
    broadcast(HsTimeout{t.round, high_qc_});
    enter_round(t.round, /*via_qc=*/false);
  }
  if (leader_of(t.round) == id() && is_quorum(weight)) {
    // > 2/3 of the power is ready for t.round: our license to propose
    // there without a fresh QC.
    tc_round_ = std::max(tc_round_, t.round);
    enter_round(t.round, /*via_qc=*/false);
    try_propose();
  }
  ensure_pacemaker();
}

// --- durability ------------------------------------------------------------

void HotStuff::prune_blocks() {
  // Committed-and-stable prefix blocks are dead weight: commit walks
  // stop at committed_height_ and laggards recover via state transfer,
  // not block fetch. Blocks between the stable checkpoint and the tip
  // stay, so peers can still repair orphan chains. Genesis is kept as
  // the structural anchor.
  const SeqNum keep_above =
      std::min<SeqNum>(ckpt_.stable(), committed_height_);
  // findep-lint: allow(unordered-iteration) -- this blocks_ is a std::map (digest-ordered, deterministic); the name merely collides with nakamoto's unordered block index in the include closure
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    const bool prune = it->second.height <= keep_above &&
                       it->second.height > 0;
    it = prune ? blocks_.erase(it) : std::next(it);
  }
}

void HotStuff::on_state_adopted() {
  committed_height_ = std::max(committed_height_, last_executed_);
  prune_blocks();
  // The chain tip may now be contiguous with the adopted horizon.
  try_commit();
  ensure_pacemaker();
  fetch_.maybe_schedule();
}

}  // namespace findep::replication
