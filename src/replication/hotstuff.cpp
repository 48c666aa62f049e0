#include "replication/hotstuff.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <variant>

#include "support/assert.h"

/// Protocol event tracing, same switch as the PBFT lane: set
/// FINDEP_BFT_TRACE=1 to log proposals, commits and pacemaker expiries.
/// Purely observational — traced runs stay bit-identical to silent ones.
#define FINDEP_HS_TRACE(...)                                         \
  do {                                                               \
    static const bool findep_hs_trace_enabled =                      \
        std::getenv("FINDEP_BFT_TRACE") != nullptr;                  \
    if (findep_hs_trace_enabled) {                                   \
      std::printf(__VA_ARGS__);                                      \
    }                                                                \
  } while (0)

namespace findep::replication {

HotStuff::HotStuff(ReplicaId id, std::vector<double> weights,
                   std::vector<crypto::PublicKey> directory,
                   crypto::KeyRegistry& registry, crypto::KeyPair keys,
                   net::SimNetwork& network, ReplicaOptions options)
    : OrderingProtocol(id, std::move(weights), std::move(directory),
                       registry, std::move(keys), network,
                       std::move(options), Protocol::kHotStuff),
      ckpt_(harness_),
      fetch_(harness_,
             StateFetchMachine::Hooks{
                 [this] { return last_executed_; },
                 [this](ReplicaId peer) {
                   send_to(peer, StateRequest{last_executed_});
                 }}) {
  // Genesis anchor: round 0, height 0, zero parent, the one vote-free
  // QC. Every chain hangs off it; every replica derives the identical
  // digest, so genesis never travels on the wire.
  HsBlock genesis;
  genesis_digest_ = genesis.digest();
  blocks_[genesis_digest_] = genesis;
  high_qc_ = QuorumCert{0, 0, genesis_digest_, {}};
}

void HotStuff::start() { harness_.start(); }

void HotStuff::submit(const Request& request) {
  if (options().behavior == Behavior::kSilent) return;
  on_request(request, id());
}

// --- dispatch --------------------------------------------------------------

double HotStuff::verify_extra_cost(const Payload& payload) const {
  // Every QC rides one envelope and is batch-verified with its carrier.
  if (const auto* p = std::get_if<HsProposal>(&payload)) {
    return options().cost_model.batch_verify_seconds(
        p->block.justify.votes.size());
  }
  if (const auto* r = std::get_if<HsBlockResponse>(&payload)) {
    return options().cost_model.batch_verify_seconds(
        r->block.justify.votes.size());
  }
  if (const auto* t = std::get_if<HsTimeout>(&payload)) {
    return options().cost_model.batch_verify_seconds(
        t->high_qc.votes.size());
  }
  if (const auto* n = std::get_if<HsQcNotice>(&payload)) {
    return options().cost_model.batch_verify_seconds(n->qc.votes.size());
  }
  if (const auto* resp = std::get_if<StateResponse>(&payload)) {
    return options().cost_model.batch_verify_seconds(resp->proof.size());
  }
  return 0.0;
}

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
          if (from_replica) on_checkpoint(m, env.sender(), env.signature());
        } else if constexpr (std::is_same_v<T, StateRequest>) {
          if (from_replica) on_state_request(m, env.sender());
        } else if constexpr (std::is_same_v<T, StateResponse>) {
          if (from_replica) {
            state_transfer_bytes_ += raw_bytes;
            on_state_response(m, env.sender());
          }
        }
        // PBFT payloads fall through: a HotStuff replica ignores the
        // other lane's traffic entirely.
      },
      env.payload());
}

// --- client ingress --------------------------------------------------------

void HotStuff::on_request(const Request& request, net::NodeId from) {
  if (request.id != 0 && executed_ids_.contains(request.id)) return;
  if (options().behavior == Behavior::kCensor && (request.id & 1) != 0) {
    return;  // client-selective starvation, same attack as the PBFT lane
  }
  const bool fresh = !pending_requests_.contains(request.id);
  pending_requests_[request.id] = request;
  if (fresh && (from >= harness_.n() || from == id())) {
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
  if (qc.votes.empty()) return false;
  const crypto::Digest vote_digest =
      HsVote{qc.round, qc.height, qc.block_digest}.digest();
  double weight = 0.0;
  std::vector<bool> seen(harness_.n(), false);
  for (const HsSignedVote& v : qc.votes) {
    if (v.voter >= harness_.n() || seen[v.voter]) return false;
    if (!harness_.registry().verify(harness_.directory()[v.voter],
                                    vote_digest, v.signature)) {
      return false;
    }
    seen[v.voter] = true;
    weight += weight_of(v.voter);
  }
  return is_quorum(weight);
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
    last_executed_ = blk.height;
    FINDEP_HS_TRACE("t=%.3f [%u] hs commit h=%llu round=%llu size=%zu\n",
                    sim().now(), id(), (unsigned long long)blk.height,
                    (unsigned long long)blk.round,
                    blk.batch.requests.size());
    // Same batch unroll and dedup as the PBFT execution path: a request
    // id that already executed is skipped, so a repeated request cannot
    // execute twice.
    for (const Request& r : blk.batch.requests) {
      if (r.id != 0) {
        if (executed_ids_.contains(r.id)) continue;
        executed_ids_[r.id] = true;
        pending_requests_.erase(r.id);
        commit_times_.emplace_back(r.id, sim().now());
      }
      executed_.push_back(ExecutedEntry{blk.height, r});
    }
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
  FINDEP_HS_TRACE("t=%.3f [%u] hs fetch-block\n", sim().now(), id());
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
  // arrived after our high-QC did, leaving the 3-chain walk blocked on
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
    observed_disruption_ = true;
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
  auto& set = votes_[v.round][v.block_digest];
  set.height = v.height;
  if (set.votes.contains(from)) return;  // one vote per voter (first wins)
  set.votes[from] = HsSignedVote{from, signature};
  double weight = 0.0;
  for (const auto& [voter, sv] : set.votes) weight += weight_of(voter);
  if (!is_quorum(weight)) return;

  // Quorum: assemble the QC (voter-ordered — the map iterates replica
  // ids ascending, so every replica would build the identical proof).
  QuorumCert qc{v.round, v.height, v.block_digest, {}};
  qc.votes.reserve(set.votes.size());
  for (const auto& [voter, sv] : set.votes) qc.votes.push_back(sv);
  votes_.erase(votes_.begin(), votes_.upper_bound(v.round));
  FINDEP_HS_TRACE("t=%.3f [%u] hs qc round=%llu h=%llu\n", sim().now(),
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
  std::vector<const Request*> all;
  all.reserve(pending_requests_.size());
  // findep-lint: allow(unordered-iteration) -- collect-only walk; sorted by request id below before anything order-sensitive happens
  for (const auto& [rid, request] : pending_requests_) {
    all.push_back(&request);
  }
  std::sort(all.begin(), all.end(),
            [](const Request* a, const Request* b) { return a->id < b->id; });
  std::vector<Request> out;
  for (const Request* r : all) {
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

bool HotStuff::try_propose() {
  if (options().behavior == Behavior::kSilent) return false;
  if (leader_of(round_) != id()) return false;
  if (last_proposed_round_ >= round_) return false;
  // The license to propose in round r: a QC from r-1 (normal path) or a
  // timeout quorum for r (pacemaker path).
  if (high_qc_.round + 1 != round_ && tc_round_ < round_) return false;

  std::vector<Request> eligible = eligible_requests();
  if (eligible.empty()) {
    if (!needs_flush()) return false;  // clean chain, nothing to do
    propose(Batch{});                  // no-op block drives the 3-chain
    return true;
  }
  if (eligible.size() < options().batch_size) {
    // Partial batch: give stragglers batch_timeout to arrive (validated
    // < pacemaker_timeout, so the cut always lands before peers expire
    // the round). The armed timer counts as an in-flight proposal.
    arm_batch_timer();
    return true;
  }
  Batch batch;
  batch.requests = std::move(eligible);
  propose(std::move(batch));
  return true;
}

void HotStuff::propose(Batch batch) {
  FINDEP_REQUIRE(leader_of(round_) == id());
  disarm_batch_timer();
  last_proposed_round_ = round_;
  HsBlock b;
  b.round = round_;
  b.height = high_qc_.height + 1;
  b.parent = high_qc_.block_digest;
  b.justify = high_qc_;
  b.batch = std::move(batch);
  FINDEP_HS_TRACE("t=%.3f [%u] hs propose round=%llu h=%llu size=%zu\n",
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
    forged.batch.requests.clear();
    forged.batch.requests.reserve(b.batch.requests.size());
    for (const Request& r : b.batch.requests) {
      Request f = r;
      f.id ^= 0x8000000000000000ULL;
      f.operation = crypto::Sha256{}
                        .update("findep/forged/v1")
                        .update(r.operation.bytes)
                        .finish();
      forged.batch.requests.push_back(f);
    }
    const HsProposal real{b};
    const HsProposal fake{forged};
    for (ReplicaId r = 0; r < harness_.n(); ++r) {
      if (r == id()) continue;
      send_to(r, r % 2 == 0 ? Payload{real} : Payload{fake});
    }
    return;  // the equivocator does not even convince itself
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
  disarm_batch_timer();
  disarm_round_timer();
  ensure_pacemaker();
}

void HotStuff::ensure_pacemaker() {
  if (options().behavior == Behavior::kSilent) return;
  const bool dirty = !pending_requests_.empty() || needs_flush();
  if (!dirty) {
    // Quiescent: no timer, so a drained simulation terminates instead of
    // timing out forever on an empty chain.
    disarm_round_timer();
    return;
  }
  if (round_timer_.has_value()) return;
  round_timer_ = sim().schedule_after(
      options().pacemaker_timeout * backoff_, [this] {
        round_timer_.reset();
        round_expired();
      });
}

void HotStuff::round_expired() {
  ++timeouts_fired_;
  observed_disruption_ = true;
  backoff_ = std::min(backoff_ * options().pacemaker_backoff,
                      options().pacemaker_max_backoff);
  ++round_;
  FINDEP_HS_TRACE("t=%.3f [%u] hs timeout -> round=%llu backoff=%.1f\n",
                  sim().now(), id(), (unsigned long long)round_, backoff_);
  disarm_batch_timer();
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
  if (leader_of(round_) != id() && !pending_requests_.empty()) {
    std::vector<const Request*> redrive;
    redrive.reserve(pending_requests_.size());
    // findep-lint: allow(unordered-iteration) -- collect-only walk; sorted by request id below before anything order-sensitive happens
    for (const auto& [rid, request] : pending_requests_) {
      redrive.push_back(&request);
    }
    std::sort(redrive.begin(), redrive.end(),
              [](const Request* a, const Request* b) {
                return a->id < b->id;
              });
    for (const Request* r : redrive) {
      send_to(leader_of(round_), *r);
    }
  }
  ensure_pacemaker();
}

void HotStuff::on_timeout(const HsTimeout& t, ReplicaId from) {
  observed_disruption_ = true;
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
  auto& voters = timeout_votes_[t.round];
  voters[from] = weight_of(from);
  double weight = 0.0;
  for (const auto& [voter, w] : voters) weight += w;
  // Amplification (the Bracha-echo of pacemakers): more than a third of
  // the power expired t.round, so at least one *honest* replica is stuck
  // there — join its timeout even though our own pacemaker is idle. This
  // is what lets a quiescent minority drag the cluster forward: replicas
  // that dropped a request at ingress (censors) see nothing pending,
  // keep no timer, and would otherwise never help the honest holders of
  // that request reach a > 2/3 timeout quorum.
  if (options().behavior != Behavior::kSilent &&
      harness_.is_third(weight) && timeout_sent_round_ < t.round) {
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

void HotStuff::arm_batch_timer() {
  if (batch_timer_.has_value()) return;
  batch_timer_ = sim().schedule_after(options().batch_timeout, [this] {
    batch_timer_.reset();
    if (leader_of(round_) != id() || last_proposed_round_ >= round_) return;
    if (high_qc_.round + 1 != round_ && tc_round_ < round_) return;
    std::vector<Request> eligible = eligible_requests();
    if (eligible.empty() && !needs_flush()) return;
    Batch batch;
    batch.requests = std::move(eligible);
    propose(std::move(batch));
  });
}

void HotStuff::disarm_batch_timer() {
  if (batch_timer_.has_value()) {
    sim().cancel(*batch_timer_);
    batch_timer_.reset();
  }
}

void HotStuff::disarm_round_timer() {
  if (round_timer_.has_value()) {
    sim().cancel(*round_timer_);
    round_timer_.reset();
  }
}

// --- durability ------------------------------------------------------------

crypto::Digest HotStuff::state_digest_with(
    const std::vector<ExecutedEntry>& extra) const {
  return state_digest_over(executed_, extra);
}

void HotStuff::maybe_checkpoint() {
  const SeqNum seq =
      ckpt_.maybe_emit(last_executed_, options().checkpoint_interval);
  if (seq == 0) return;
  broadcast(Checkpoint{seq, state_digest_with({})});
}

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

void HotStuff::on_checkpoint(const Checkpoint& cp, ReplicaId from,
                             const crypto::Signature& signature) {
  // Same claims bookkeeping as the PBFT lane: a signed checkpoint is
  // evidence of the sender's execution horizon.
  fetch_.note_claim(from, cp.seq);
  if (!ckpt_.on_vote(cp, from, signature, last_executed_,
                     options().checkpoint_interval)) {
    return;
  }
  prune_blocks();
  if (ckpt_.stable() > last_executed_) fetch_.maybe_schedule();
}

void HotStuff::on_state_request(const StateRequest& sr, ReplicaId from) {
  if (ckpt_.stable() == 0 || ckpt_.proof().empty()) return;
  if (sr.last_executed >= ckpt_.stable()) return;  // nothing to prove
  if (last_executed_ < ckpt_.stable()) return;     // cannot substantiate
  StateResponse resp;
  resp.request_from = sr.last_executed;
  resp.checkpoint = Checkpoint{ckpt_.stable(), ckpt_.digest()};
  resp.proof = ckpt_.proof();
  for (const ExecutedEntry& e : executed_) {
    if (e.seq > sr.last_executed && e.seq <= ckpt_.stable()) {
      resp.entries.push_back(e);
    }
  }
  // resp.new_view stays empty: HotStuff has no view-change artifact to
  // relay — the pacemaker resynchronizes rounds by itself.
  send_to(from, std::move(resp));
}

void HotStuff::on_state_response(const StateResponse& resp, ReplicaId from) {
  if (!options().enable_state_transfer) return;
  if (resp.checkpoint.seq <= last_executed_) return;  // stale/no-op

  const auto reject = [&] {
    ++state_transfers_rejected_;
    fetch_.on_rejected(from);
  };

  // Same three steps as the PBFT lane, sharing the proof verifier and
  // the digest arbiter (the two lanes hash identical executed-entry
  // logs, so a checkpoint proof is protocol-portable).
  if (!verify_checkpoint_proof(harness_, resp.checkpoint, resp.proof)) {
    return reject();
  }
  std::vector<ExecutedEntry> suffix;
  suffix.reserve(resp.entries.size());
  SeqNum prev = last_executed_;
  for (const ExecutedEntry& e : resp.entries) {
    if (e.seq <= last_executed_) continue;
    if (e.seq < prev || e.seq > resp.checkpoint.seq) return reject();
    prev = e.seq;
    suffix.push_back(e);
  }
  if (state_digest_with(suffix) != resp.checkpoint.state_digest) {
    return reject();
  }

  for (const ExecutedEntry& e : suffix) {
    if (e.request.id != 0) {
      executed_ids_[e.request.id] = true;
      pending_requests_.erase(e.request.id);
    }
    executed_.push_back(e);
  }
  last_executed_ = resp.checkpoint.seq;
  committed_height_ = std::max(committed_height_, last_executed_);
  ++state_transfers_completed_;
  ckpt_.maybe_adopt(resp.checkpoint, resp.proof);
  prune_blocks();
  fetch_.on_adopted();
  // The chain tip may now be contiguous with the adopted horizon.
  try_commit();
  ensure_pacemaker();
  fetch_.maybe_schedule();
}

}  // namespace findep::replication
