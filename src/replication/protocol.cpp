#include "replication/protocol.h"

#include <algorithm>
#include <span>

namespace findep::replication {

OrderingProtocol::OrderingProtocol(ReplicaId id, std::vector<double> weights,
                                   std::vector<crypto::PublicKey> directory,
                                   crypto::KeyRegistry& registry,
                                   crypto::KeyPair keys,
                                   net::SimNetwork& network,
                                   ReplicaOptions options)
    : harness_(*this, id, std::move(weights), std::move(directory),
               registry, std::move(keys), network, std::move(options)),
      ckpt_(harness_),
      fetch_(harness_,
             StateFetchMachine::Hooks{
                 [this] { return last_executed_; },
                 [this](ReplicaId peer) {
                   ++harness_.counters().state_requests_sent;
                   send_to(peer, StateRequest{last_executed_});
                 }}) {}

// --- the replicated log ------------------------------------------------------

bool OrderingProtocol::admit(const Request& request) const {
  if (request.id != 0 && executed_ids_.contains(request.id)) return false;
  return options().behavior != Behavior::kCensor || (request.id & 1) == 0;
}

void OrderingProtocol::execute_batch(SeqNum seq, const Batch& batch) {
  last_executed_ = seq;
  for (const Request& r : batch.requests) {
    if (r.id != 0) {
      if (!executed_ids_.insert(r.id).second) continue;
      pending_requests_.erase(r.id);
    }
    append_executed(ExecutedEntry{seq, r});
  }
}

void OrderingProtocol::append_executed(const ExecutedEntry& entry) {
  executed_.push_back(entry);
  if (on_executed_) on_executed_(entry);
}

const crypto::Sha256& OrderingProtocol::log_hash() {
  absorb_executed(log_hash_, std::span(executed_).subspan(log_hashed_));
  log_hashed_ = executed_.size();
  return log_hash_;
}

std::vector<const Request*> OrderingProtocol::pending_by_id() const {
  std::vector<const Request*> out;
  out.reserve(pending_requests_.size());
  // findep-lint: allow(unordered-iteration) -- collect-only walk; sorted by request id below before anything order-sensitive happens
  for (const auto& [rid, request] : pending_requests_) {
    out.push_back(&request);
  }
  std::sort(out.begin(), out.end(),
            [](const Request* a, const Request* b) { return a->id < b->id; });
  return out;
}

Batch OrderingProtocol::forge_batch(const Batch& batch) {
  Batch forged;
  forged.requests.reserve(batch.size());
  for (const Request& r : batch.requests) {
    Request f = r;
    f.id ^= 0x8000000000000000ULL;
    f.operation = crypto::Sha256{}
                      .update("findep/forged/v1")
                      .update(r.operation.bytes)
                      .finish();
    forged.requests.push_back(f);
  }
  return forged;
}

void OrderingProtocol::equivocate(const Payload& real, const Payload& fake) {
  for (ReplicaId r = 0; r < harness_.n(); ++r) {
    if (r == id()) continue;
    send_to(r, r % 2 == 0 ? real : fake);
  }
}

void OrderingProtocol::maybe_checkpoint() {
  const SeqNum seq =
      ckpt_.maybe_emit(last_executed_, options().checkpoint_interval);
  if (seq == 0) return;
  crypto::Sha256 state = log_hash();
  broadcast(Checkpoint{seq, state.finish()});
}

// --- checkpoints and state transfer ------------------------------------------

bool OrderingProtocol::on_checkpoint(const Checkpoint& cp, ReplicaId from,
                                     const crypto::Signature& signature) {
  // A signed checkpoint is also a claim about the sender's execution
  // horizon; record it before any windowing so far-behind replicas can
  // detect credible progress beyond their vote window (state transfer).
  fetch_.note_claim(from, cp.seq);
  if (!ckpt_.on_vote(cp, from, signature, last_executed_,
                     options().checkpoint_interval)) {
    return false;
  }
  if (ckpt_.stable() > last_executed_) fetch_.maybe_schedule();
  return true;
}

void OrderingProtocol::on_state_request(
    const StateRequest& sr, ReplicaId from,
    std::shared_ptr<const NewView> new_view) {
  if (ckpt_.stable() == 0 || ckpt_.proof().empty()) return;
  if (sr.last_executed >= ckpt_.stable()) return;  // nothing to prove
  // A replica that adopted a remote stable checkpoint it has not itself
  // executed up to cannot substantiate the digest — decline instead of
  // sending a response the requester would provably reject.
  if (last_executed_ < ckpt_.stable()) return;
  StateResponse resp;
  resp.request_from = sr.last_executed;
  resp.checkpoint = Checkpoint{ckpt_.stable(), ckpt_.digest()};
  resp.proof = ckpt_.proof();
  for (const ExecutedEntry& e : executed_) {
    if (e.seq > sr.last_executed && e.seq <= ckpt_.stable()) {
      resp.entries.push_back(e);
    }
  }
  resp.new_view = std::move(new_view);
  send_to(from, std::move(resp));
}

bool OrderingProtocol::on_state_response(const StateResponse& resp,
                                         ReplicaId from,
                                         std::uint64_t raw_bytes) {
  harness_.counters().state_transfer_bytes += raw_bytes;
  if (!options().enable_state_transfer) return false;
  if (resp.checkpoint.seq <= last_executed_) return false;  // stale/no-op

  const auto reject = [&] {
    ++harness_.counters().state_transfers_rejected;
    fetch_.on_rejected(from);
    return false;
  };

  // 1. The checkpoint must be proven by a quorum of verifiable votes.
  if (!verify_checkpoint_proof(harness_, resp.checkpoint, resp.proof)) {
    return reject();
  }

  // 2. The entries must splice onto our own log — in range, seq-ordered —
  //    and reproduce the proven state digest exactly. Entries below our
  //    horizon are skipped (we may have executed further since asking);
  //    honest logs are prefix-consistent, so the remainder is precisely
  //    the suffix our log is missing, and the digest is the arbiter. Both
  //    lanes hash the same executed-entry log, so a checkpoint proof is
  //    protocol-portable.
  std::vector<ExecutedEntry> suffix;
  suffix.reserve(resp.entries.size());
  SeqNum prev = last_executed_;
  for (const ExecutedEntry& e : resp.entries) {
    if (e.seq <= last_executed_) continue;
    if (e.seq < prev || e.seq > resp.checkpoint.seq) return reject();
    prev = e.seq;
    suffix.push_back(e);
  }
  crypto::Sha256 state = log_hash();
  absorb_executed(state, suffix);
  if (state.finish() != resp.checkpoint.state_digest) return reject();

  // 3. Adopt: replay the suffix, advance the horizon to the checkpoint,
  //    take over the proof so we can serve transfers ourselves.
  for (const ExecutedEntry& e : suffix) {
    if (e.request.id != 0) {
      executed_ids_.insert(e.request.id);
      pending_requests_.erase(e.request.id);
    }
    append_executed(e);
  }
  last_executed_ = resp.checkpoint.seq;
  ++harness_.counters().state_transfers;
  ckpt_.maybe_adopt(resp.checkpoint, resp.proof);
  fetch_.on_adopted();
  return true;
}

}  // namespace findep::replication
