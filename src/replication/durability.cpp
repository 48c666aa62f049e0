#include "replication/durability.h"

#include <algorithm>
#include <utility>

#include "support/assert.h"

namespace findep::replication {

bft::SeqNum CheckpointStore::maybe_emit(bft::SeqNum last_executed,
                                        bft::SeqNum interval) {
  if (last_executed < stable_ + interval) return 0;
  if (last_executed <= last_sent_) return 0;
  last_sent_ = last_executed;
  return last_executed;
}

bool CheckpointStore::on_vote(const bft::Checkpoint& cp, bft::ReplicaId from,
                              const crypto::Signature& signature,
                              bft::SeqNum last_executed,
                              bft::SeqNum interval) {
  if (cp.seq <= stable_) return false;
  const bft::SeqNum window_top =
      std::max(stable_, last_executed) + 2 * interval;
  if (cp.seq > window_top) return false;
  std::vector<DigestVotes>& by_digest = votes_[cp.seq];
  DigestVotes* votes = nullptr;
  for (DigestVotes& d : by_digest) {
    // One vote per sender per seq (first wins): bounds the per-seq
    // digest fan-out an equivocating voter could otherwise create.
    if (d.voters.contains(from)) return false;
    if (d.state_digest == cp.state_digest) votes = &d;
  }
  if (votes == nullptr) {
    votes = &by_digest.emplace_back(
        DigestVotes{cp.state_digest, VoteTally(harness_->n()), {}});
  }
  votes->voters.add(from);
  votes->votes.push_back(bft::SignedCheckpoint{from, cp, signature});
  if (!harness_->is_quorum(harness_->vote_weight(votes->voters))) {
    return false;
  }

  stable_ = cp.seq;
  digest_ = cp.state_digest;
  // The proof lists its votes in ascending sender order.
  proof_ = std::move(votes->votes);
  std::sort(proof_.begin(), proof_.end(),
            [](const bft::SignedCheckpoint& a, const bft::SignedCheckpoint& b) {
              return a.sender < b.sender;
            });
  // Adopting a remote stable checkpoint retires any pending own
  // checkpoint at or below it: re-broadcasting a stale own checkpoint
  // for an already-stable seq would only feed dead vote rounds (two
  // simultaneous laggards could otherwise stall the next quorum).
  last_sent_ = std::max(last_sent_, stable_);
  prune_votes();
  return true;
}

void CheckpointStore::maybe_adopt(
    const bft::Checkpoint& checkpoint,
    const std::vector<bft::SignedCheckpoint>& proof) {
  if (checkpoint.seq >= stable_) {
    stable_ = checkpoint.seq;
    digest_ = checkpoint.state_digest;
    proof_ = proof;
  }
  last_sent_ = std::max(last_sent_, stable_);
  prune_votes();
}

void CheckpointStore::prune_votes() {
  for (auto it = votes_.begin(); it != votes_.end();) {
    it = it->first <= stable_ ? votes_.erase(it) : std::next(it);
  }
}

StateFetchMachine::StateFetchMachine(const NodeHarness& harness, Hooks hooks)
    : harness_(&harness),
      hooks_(std::move(hooks)),
      timer_(harness.simulator()),
      st_rng_(support::mix64(harness.options().rng_seed)) {
  FINDEP_REQUIRE(hooks_.horizon != nullptr);
  FINDEP_REQUIRE(hooks_.send_request != nullptr);
  peer_claims_.assign(harness.n(), 0);
}

void StateFetchMachine::note_claim(bft::ReplicaId from, bft::SeqNum seq) {
  if (from >= peer_claims_.size() || from == harness_->id()) return;
  if (seq <= peer_claims_[from]) return;
  peer_claims_[from] = seq;
  maybe_schedule();
}

bft::SeqNum StateFetchMachine::catchup_target() const {
  // Highest seq S with > 1/3 of voting power claiming >= S beyond our
  // horizon: walk claims in descending order accumulating weight. The
  // 1/3 bound guarantees at least one *honest* claimant holds a provable
  // stable checkpoint at S — Byzantine peers alone (< 1/3) cannot
  // fabricate a target, and an inflated single claim is skipped over
  // until honest weight joins the count.
  const bft::SeqNum horizon = hooks_.horizon();
  std::vector<std::pair<bft::SeqNum, double>> claims;
  for (bft::ReplicaId r = 0; r < peer_claims_.size(); ++r) {
    if (r == harness_->id()) continue;
    if (peer_claims_[r] > horizon) {
      claims.emplace_back(peer_claims_[r], harness_->weight_of(r));
    }
  }
  std::sort(claims.begin(), claims.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  double weight = 0.0;
  for (const auto& [seq, w] : claims) {
    weight += w;
    if (harness_->is_third(weight)) return seq;
  }
  return 0;
}

void StateFetchMachine::maybe_schedule() {
  if (!harness_->options().enable_state_transfer) return;
  if (timer_.armed()) return;  // already scheduled/awaiting
  if (catchup_target() == 0) return;
  // Grace period: in-flight slots usually commit from live traffic
  // within a round trip; fetch only if the gap persists.
  timer_.arm(harness_->options().state_transfer_grace, [this] { tick(); });
}

void StateFetchMachine::tick() {
  const bft::SeqNum target = catchup_target();
  if (target == 0) {
    // Caught up (live traffic or an earlier transfer closed the gap).
    last_fetch_peer_.reset();
    return;
  }
  // Candidates: every peer whose signed claim reaches the target. Avoid
  // re-asking the peer that just failed or timed out when there is a
  // choice ("retry elsewhere").
  std::vector<bft::ReplicaId> candidates;
  for (bft::ReplicaId r = 0; r < peer_claims_.size(); ++r) {
    if (r == harness_->id() || peer_claims_[r] < target) continue;
    candidates.push_back(r);
  }
  if (candidates.empty()) return;
  if (candidates.size() > 1 && last_fetch_peer_.has_value()) {
    std::erase(candidates, *last_fetch_peer_);
  }
  const bft::ReplicaId peer =
      candidates[st_rng_.below(candidates.size())];
  last_fetch_peer_ = peer;
  hooks_.send_request(peer);
  timer_.arm(harness_->options().state_transfer_timeout, [this] { tick(); });
}

void StateFetchMachine::on_rejected(bft::ReplicaId from) {
  if (!timer_.armed()) return;
  // Retry elsewhere immediately instead of waiting out the timer;
  // last_fetch_peer_ steers the pick away from this responder.
  timer_.cancel();
  last_fetch_peer_ = from;
  tick();
}

void StateFetchMachine::on_adopted() {
  timer_.cancel();
  last_fetch_peer_.reset();
}

bool verify_checkpoint_proof(const NodeHarness& harness,
                             const bft::Checkpoint& checkpoint,
                             const std::vector<bft::SignedCheckpoint>& proof) {
  // Every vote must match the checkpoint, so all of them signed its one
  // digest.
  const crypto::Digest digest = checkpoint.digest();
  QuorumCheck check(harness);
  for (const bft::SignedCheckpoint& sc : proof) {
    if (sc.checkpoint.seq != checkpoint.seq ||
        sc.checkpoint.state_digest != checkpoint.state_digest ||
        !check.add(sc.sender, digest, sc.signature)) {
      return false;
    }
  }
  return check.quorum();
}

crypto::Digest state_digest_over(
    const std::vector<bft::ExecutedEntry>& log,
    const std::vector<bft::ExecutedEntry>& extra) {
  crypto::Sha256 h;
  h.update("findep/bft/state/v1");
  for (const bft::ExecutedEntry& e : log) {
    h.update_u64(e.seq);
    h.update(e.request.digest().bytes);
  }
  for (const bft::ExecutedEntry& e : extra) {
    h.update_u64(e.seq);
    h.update(e.request.digest().bytes);
  }
  return h.finish();
}

}  // namespace findep::replication
