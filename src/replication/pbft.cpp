#include "replication/pbft.h"

#include <algorithm>
#include <type_traits>
#include <variant>

#include "support/assert.h"

namespace findep::replication {

Pbft::Pbft(ReplicaId id, std::vector<double> weights,
           std::vector<crypto::PublicKey> directory,
           crypto::KeyRegistry& registry, crypto::KeyPair keys,
           net::SimNetwork& network, ReplicaOptions options)
    : OrderingProtocol(id, std::move(weights), std::move(directory),
                       registry, std::move(keys), network,
                       std::move(options), Protocol::kPbft) {}

// --- dispatch --------------------------------------------------------------

runtime::WorkerPool::StaleCheck Pbft::verify_stale_check(
    const Payload& payload) const {
  // Only messages the handler would provably ignore are shed: normal-case
  // traffic from views older than the installed one, and view-change /
  // new-view traffic for views already installed. (Future-view traffic is
  // NOT stale — dispatch buffers it for replay.) Checkpoints, requests
  // and state transfer never expire.
  return std::visit(
      [this](const auto& m) -> runtime::WorkerPool::StaleCheck {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, PrePrepare> ||
                      std::is_same_v<T, Prepare> ||
                      std::is_same_v<T, Commit>) {
          return [this, v = m.view] { return v < view_; };
        } else if constexpr (std::is_same_v<T, ViewChange>) {
          return [this, v = m.new_view] { return v <= view_; };
        } else if constexpr (std::is_same_v<T, NewView>) {
          return [this, v = m.view] { return v <= view_; };
        } else {
          return nullptr;
        }
      },
      payload);
}

void Pbft::dispatch_payload(const Envelope& env, net::NodeId raw_from,
                            std::uint64_t raw_bytes) {
  const bool from_replica = env.sender() < harness_.n();
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Request>) {
          on_request(m, raw_from);
          return;
        } else {
          if (!from_replica) return;  // clients may only send requests
          if constexpr (std::is_same_v<T, PrePrepare> ||
                        std::is_same_v<T, Prepare> ||
                        std::is_same_v<T, Commit>) {
            if (m.view > view_) {
              // We lag behind a view change; replay after installation.
              future_messages_.push_back(env);
              return;
            }
          }
          if constexpr (std::is_same_v<T, PrePrepare>) {
            on_preprepare(m, env.sender());
          } else if constexpr (std::is_same_v<T, Prepare>) {
            on_prepare(m, env.sender());
          } else if constexpr (std::is_same_v<T, Commit>) {
            on_commit(m, env.sender());
          } else if constexpr (std::is_same_v<T, Checkpoint>) {
            if (on_checkpoint(m, env.sender(), env.signature())) {
              // Prune consensus state at and below the stable checkpoint
              // — but never above our own execution horizon: a replica
              // that lags behind a remote checkpoint keeps its in-flight
              // slots and can still finish them from live traffic while
              // a state transfer is pending.
              prune_to(std::min(ckpt_.stable(), last_executed_));
              retry_deferred_cut();  // the raised watermark may unblock it
            }
          } else if constexpr (std::is_same_v<T, ViewChange>) {
            on_viewchange(env);
          } else if constexpr (std::is_same_v<T, NewView>) {
            on_newview(m, env.sender());
          } else if constexpr (std::is_same_v<T, StateRequest>) {
            on_state_request(m, env.sender(), last_new_view_);
          } else if constexpr (std::is_same_v<T, StateResponse>) {
            if (on_state_response(m, env.sender(), raw_bytes)) {
              on_state_adopted(m);
            }
          }
          // HotStuff payloads fall through: a PBFT replica ignores the
          // other lane's traffic entirely.
        }
      },
      env.payload());
}

void Pbft::replay_future_messages() {
  std::vector<Envelope> pending;
  pending.swap(future_messages_);
  // Only replica normal-case traffic is buffered, and its handlers read
  // neither the raw sender nor the byte count.
  for (const Envelope& env : pending) dispatch_payload(env, env.sender(), 0);
}

// --- normal case ----------------------------------------------------------

void Pbft::on_request(const Request& request, net::NodeId from) {
  if (!admit(request)) return;
  if (!pending_requests_.contains(request.id)) {
    track_request_deadline(request.id);
  }
  pending_requests_[request.id] = request;
  arm_request_timer();
  if (in_view_change_) return;
  if (is_primary()) {
    enqueue_for_proposal(request);
  } else if (from >= harness_.n()) {
    // Came from a client: relay to the primary.
    send_to(primary_of(view_), request);
  }
}

void Pbft::enqueue_for_proposal(const Request& request) {
  FINDEP_REQUIRE(is_primary());
  if (request.id != 0 &&
      (queued_ids_.contains(request.id) || assigned_.contains(request.id) ||
       executed_ids_.contains(request.id))) {
    return;
  }
  batch_queue_.push_back(request);
  if (request.id != 0) queued_ids_[request.id] = true;
  if (batch_queue_.size() >= options().batch_size) {
    // Cut synchronously: with batch_size = 1 every request is proposed
    // the moment it arrives and the batch timer is never armed, which is
    // exactly the unbatched protocol.
    cut_batch();
  } else if (!batch_timer_.armed()) {
    batch_timer_.arm(options().batch_timeout, [this] {
      // Cut whatever accumulated: a partial batch must not wait for
      // traffic that may never come (liveness of light load).
      if (!in_view_change_ && is_primary()) cut_batch();
    });
  }
}

void Pbft::cut_batch() {
  batch_timer_.cancel();
  if (batch_queue_.empty()) return;
  if (next_seq_ > ckpt_.stable() + options().high_watermark_window) {
    // High-watermark back-pressure: the queue holds the batch until the
    // stable checkpoint advances (retry_deferred_cut), bounding in-flight
    // consensus state instead of letting a fast primary outrun a slow
    // checkpoint quorum without limit.
    cut_deferred_ = true;
    ++harness_.counters().proposals_deferred;
    return;
  }
  cut_deferred_ = false;
  Batch batch;
  batch.requests.swap(batch_queue_);
  for (const Request& r : batch.requests) {
    if (r.id != 0) queued_ids_.erase(r.id);
  }
  propose(std::move(batch));
}

void Pbft::retry_deferred_cut() {
  if (!cut_deferred_) return;
  cut_deferred_ = false;
  // A view change may have demoted us since the deferral; install_new_view
  // already voided the old queue in that case.
  if (!is_primary() || in_view_change_) return;
  cut_batch();  // re-defers itself if the watermark still binds
}

void Pbft::propose(Batch batch) {
  FINDEP_REQUIRE(is_primary());
  const SeqNum seq = next_seq_++;
  FINDEP_BFT_TRACE("t=%.3f [%u] propose seq=%llu view=%llu size=%zu\n",
                   sim().now(), id(), (unsigned long long)seq,
                   (unsigned long long)view_, batch.size());
  for (const Request& r : batch.requests) {
    if (r.id != 0) assigned_[r.id] = seq;
  }

  if (options().behavior == Behavior::kEquivocate ||
      options().behavior == Behavior::kCollude) {
    // Conflicting proposals: the real batch to the even replicas, a
    // fabricated one (every request forged) to the odd ones. A lone
    // equivocator is harmless — neither half can reach a prepared
    // certificate for a conflicting pair, because commit weight only
    // comes from replicas that prepared that digest. A *colluding*
    // primary additionally throws its own prepare + commit weight behind
    // both digests (and colluding backups endorse whatever they hear),
    // which is what makes conflicting certificates reachable once
    // colluding power exceeds a third.
    const PrePrepare fake{view_, seq, forge_batch(batch)};
    const PrePrepare real{view_, seq, std::move(batch)};
    equivocate(real, fake);
    if (options().behavior == Behavior::kCollude) {
      collude_endorse(view_, seq, real.batch.digest());
      collude_endorse(view_, seq, fake.batch.digest());
    }
    return;
  }

  broadcast(PrePrepare{view_, seq, std::move(batch)});
}

void Pbft::on_preprepare(const PrePrepare& pp, ReplicaId from) {
  if (in_view_change_ || pp.view != view_) return;
  if (options().behavior == Behavior::kCollude) {
    collude_endorse(pp.view, pp.seq, pp.batch.digest());
  }
  if (from != primary_of(pp.view)) return;
  // Reject by our own execution horizon, not the stable checkpoint: a
  // lagging replica may adopt a *remote* stable checkpoint above its own
  // last_executed_ and, with no state transfer, must still be able to
  // finish its in-flight slots below it (same in on_prepare/on_commit).
  if (pp.seq <= last_executed_) return;
  accept_preprepare(pp);
}

void Pbft::accept_preprepare(const PrePrepare& pp) {
  Slot& slot = slots_[pp.seq];
  const crypto::Digest digest = pp.batch.digest();
  if (slot.have_preprepare && slot.batch_digest != digest) {
    return;  // conflicting pre-prepare from an equivocating primary
  }
  slot.have_preprepare = true;
  slot.batch = pp.batch;
  slot.batch_digest = digest;
  // The primary's pre-prepare doubles as its prepare vote.
  add_vote(slot.prepare_votes, digest, primary_of(pp.view));

  if (!slot.sent_prepare && id() != primary_of(pp.view)) {
    slot.sent_prepare = true;
    add_vote(slot.prepare_votes, digest, id());
    broadcast(Prepare{pp.view, pp.seq, digest});
  }
  // Track the batch's requests for liveness even if they reached us only
  // via the primary.
  bool tracked = false;
  for (const Request& r : slot.batch.requests) {
    if (r.id != 0 && !executed_ids_.contains(r.id)) {
      if (!pending_requests_.contains(r.id)) track_request_deadline(r.id);
      pending_requests_[r.id] = r;
      tracked = true;
    }
  }
  if (tracked) arm_request_timer();
  maybe_prepared(pp.seq);
}

void Pbft::on_prepare(const Prepare& p, ReplicaId from) {
  if (in_view_change_ || p.view != view_) return;
  if (options().behavior == Behavior::kCollude) {
    collude_endorse(p.view, p.seq, p.request_digest);
  }
  if (p.seq <= last_executed_) return;
  Slot& slot = slots_[p.seq];
  add_vote(slot.prepare_votes, p.request_digest, from);
  maybe_prepared(p.seq);
}

void Pbft::maybe_prepared(SeqNum seq) {
  const auto it = slots_.find(seq);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  if (!slot.have_preprepare || slot.prepared) return;
  if (!is_quorum(digest_weight(slot.prepare_votes, slot.batch_digest))) {
    return;
  }

  slot.prepared = true;
  slot.prepared_view = view_;
  if (!slot.sent_commit) {
    slot.sent_commit = true;
    add_vote(slot.commit_votes, slot.batch_digest, id());
    broadcast(Commit{view_, seq, slot.batch_digest});
  }
  maybe_committed(seq);
}

void Pbft::on_commit(const Commit& c, ReplicaId from) {
  if (in_view_change_ || c.view != view_) return;
  if (options().behavior == Behavior::kCollude) {
    collude_endorse(c.view, c.seq, c.request_digest);
  }
  if (c.seq <= last_executed_) return;
  Slot& slot = slots_[c.seq];
  add_vote(slot.commit_votes, c.request_digest, from);
  maybe_committed(c.seq);
}

void Pbft::collude_endorse(View v, SeqNum seq,
                           const crypto::Digest& digest) {
  FINDEP_ASSERT(options().behavior == Behavior::kCollude);
  if (v != view_ || in_view_change_) return;
  if (seq <= last_executed_) return;
  // Lend full weight to every digest exactly once: prepare and commit
  // with no conflict check, the classic vote-for-everything strategy.
  // The endorse set is pruned with slots_ when checkpoints advance.
  auto& endorsed = colluded_[seq];
  if (std::find(endorsed.begin(), endorsed.end(), digest) !=
      endorsed.end()) {
    return;
  }
  endorsed.push_back(digest);
  broadcast(Prepare{v, seq, digest});
  broadcast(Commit{v, seq, digest});
}

void Pbft::maybe_committed(SeqNum seq) {
  const auto it = slots_.find(seq);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  if (!slot.prepared || slot.committed) return;
  if (!is_quorum(digest_weight(slot.commit_votes, slot.batch_digest))) {
    return;
  }
  slot.committed = true;
  FINDEP_BFT_TRACE("t=%.3f [%u] committed seq=%llu view=%llu le=%llu\n",
                   sim().now(), id(), (unsigned long long)seq,
                   (unsigned long long)view_,
                   (unsigned long long)last_executed_);
  execute_ready();
}

void Pbft::add_vote(std::vector<DigestTally>& votes,
                    const crypto::Digest& digest, ReplicaId voter) const {
  for (DigestTally& tally : votes) {
    if (tally.first == digest) {
      tally.second.add(voter);
      return;
    }
  }
  votes.emplace_back(digest, VoteTally(harness_.n())).second.add(voter);
}

double Pbft::digest_weight(const std::vector<DigestTally>& votes,
                           const crypto::Digest& digest) const {
  for (const DigestTally& tally : votes) {
    if (tally.first == digest) return vote_weight(tally.second);
  }
  return 0.0;
}

void Pbft::execute_ready() {
  for (;;) {
    const auto it = slots_.find(last_executed_ + 1);
    if (it == slots_.end() || !it->second.committed) break;
    execute_batch(it->first, it->second.batch);
  }
  if (pending_requests_.empty()) {
    // Fully drained: drop the timer and the (all-dead) deadline queue.
    request_timer_.cancel();
    request_deadlines_.clear();
  }
  // Otherwise the armed timer stays put. Each request carries its own
  // arrival-based deadline, so progress on *other* requests neither
  // resets nor extends a pending one — a primary serving some clients
  // while starving another is detected within one request_timeout
  // (previously documented as the starvation caveat: the old single
  // timer reset on any progress). Executed ids are popped from the
  // deadline queue lazily, by the timer callback.
  maybe_checkpoint();
}

void Pbft::prune_to(SeqNum seq) {
  for (auto it = slots_.begin(); it != slots_.end();) {
    it = it->first <= seq ? slots_.erase(it) : std::next(it);
  }
  colluded_.erase(colluded_.begin(), colluded_.upper_bound(seq));
}

// --- timers ----------------------------------------------------------------

void Pbft::track_request_deadline(std::uint64_t request_id) {
  // Called exactly when `request_id` first enters pending_requests_, so
  // deadlines are arrival-ordered and nondecreasing: the front of the
  // deque is always the earliest live deadline. Retransmissions do not
  // reach here (the caller guards on !contains), so a retried request
  // keeps its original deadline instead of being silently extended.
  request_deadlines_.emplace_back(sim().now() + options().request_timeout,
                                  request_id);
}

void Pbft::refresh_request_deadlines() {
  // A view change is a cluster-wide progress event: every still-pending
  // request gets a fresh grace period under the new primary. Deadlines
  // are rewritten in place — the deque stays arrival-ordered and all
  // entries share one timestamp, so the nondecreasing invariant holds.
  const double deadline = sim().now() + options().request_timeout;
  for (auto& entry : request_deadlines_) entry.first = deadline;
}

void Pbft::arm_request_timer() {
  if (options().behavior == Behavior::kSilent) return;
  // Lazily shed entries whose request already executed (or was never
  // tracked locally): the deadline queue is append-only on arrival, so
  // the front may be stale.
  while (!request_deadlines_.empty() &&
         !pending_requests_.contains(request_deadlines_.front().second)) {
    request_deadlines_.pop_front();
  }
  if (request_timer_.armed() || request_deadlines_.empty()) return;
  const double wait =
      std::max(0.0, request_deadlines_.front().first - sim().now());
  request_timer_.arm(wait, [this] { request_timer_fired(); });
}

void Pbft::request_timer_fired() {
  while (!request_deadlines_.empty() &&
         !pending_requests_.contains(request_deadlines_.front().second)) {
    request_deadlines_.pop_front();
  }
  if (request_deadlines_.empty()) return;
  if (in_view_change_) return;  // install_new_view refreshes and re-arms
  // Epsilon absorbs the float roundoff of scheduling `deadline - now`
  // relative to a moved `now`; deadlines are seconds-scale, so 1ns of
  // slack cannot conflate two distinct timeouts.
  if (request_deadlines_.front().first <= sim().now() + 1e-9) {
    // The front request outlived its own timeout — progress elsewhere
    // does not excuse the primary (client-selective starvation is a
    // fault, not a scheduling artifact).
    start_view_change(view_ + 1);
    return;
  }
  // The old front was shed above and a later deadline surfaced: re-arm
  // for it. Never late, because deadlines are nondecreasing.
  arm_request_timer();
}

// --- view change -------------------------------------------------------

void Pbft::start_view_change(View target) {
  if (target <= view_) return;
  if (in_view_change_ && target <= pending_view_) return;
  in_view_change_ = true;
  pending_view_ = target;
  Telemetry& counters = harness_.counters();
  ++counters.disruptions;
  counters.observed_disruption = true;
  FINDEP_BFT_TRACE("t=%.3f [%u] start_vc target=%llu le=%llu pending=%zu\n",
                   sim().now(), id(), (unsigned long long)target,
                   (unsigned long long)last_executed_,
                   pending_requests_.size());
  request_timer_.cancel();
  batch_timer_.cancel();

  ViewChange vc;
  vc.new_view = target;
  vc.last_executed = ckpt_.stable();
  for (const auto& [seq, slot] : slots_) {
    if (slot.prepared && seq > ckpt_.stable()) {
      vc.prepared.push_back(
          PreparedEntry{slot.prepared_view, seq, slot.batch});
    }
  }
  viewchange_timer_.cancel();
  viewchange_timer_.arm(options().view_change_timeout, [this, target] {
    if (in_view_change_ && pending_view_ == target) {
      start_view_change(target + 1);  // new primary also failed
    }
  });
  broadcast(vc);
}

void Pbft::on_viewchange(const Envelope& env) {
  const ViewChange& vc = std::get<ViewChange>(env.payload());
  const ReplicaId from = env.sender();
  // A view change states the sender's stable checkpoint — a signed claim
  // usable as state-transfer evidence.
  fetch_.note_claim(from, vc.last_executed);
  if (vc.new_view <= view_) return;
  auto& votes = viewchange_votes_[vc.new_view];
  const bool already =
      std::any_of(votes.begin(), votes.end(),
                  [from](const SignedViewChange& s) {
                    return s.sender() == from;
                  });
  if (!already) {
    votes.emplace_back(env);
  }

  double weight = 0.0;
  for (const SignedViewChange& s : votes) weight += weight_of(s.sender());

  // Join rule: a third of the power already wants this view, so at least
  // one honest replica timed out — join to guarantee liveness.
  if (is_third(weight) &&
      (!in_view_change_ || pending_view_ < vc.new_view)) {
    start_view_change(vc.new_view);
  }
  if (primary_of(vc.new_view) == id()) {
    maybe_assemble_new_view(vc.new_view);
  }
}

std::vector<PrePrepare> Pbft::compute_reproposals(
    View target, const std::vector<SignedViewChange>& proofs) {
  SeqNum min_s = 0;
  SeqNum max_s = 0;
  for (const SignedViewChange& s : proofs) {
    min_s = std::max(min_s, s.vc().last_executed);
    for (const PreparedEntry& e : s.vc().prepared) {
      max_s = std::max(max_s, e.seq);
    }
  }
  std::vector<PrePrepare> out;
  for (SeqNum seq = min_s + 1; seq <= max_s; ++seq) {
    const PreparedEntry* best = nullptr;
    for (const SignedViewChange& s : proofs) {
      for (const PreparedEntry& e : s.vc().prepared) {
        if (e.seq != seq) continue;
        if (best == nullptr || e.view > best->view) best = &e;
      }
    }
    out.push_back(PrePrepare{
        target, seq, best != nullptr ? best->batch : Batch{}});
  }
  return out;
}

void Pbft::maybe_assemble_new_view(View target) {
  if (view_ >= target || newview_assembled_for_ >= target) return;
  const auto it = viewchange_votes_.find(target);
  if (it == viewchange_votes_.end()) return;
  // Must include our own view change.
  const bool have_own =
      std::any_of(it->second.begin(), it->second.end(),
                  [this](const SignedViewChange& s) {
                    return s.sender() == id();
                  });
  if (!have_own) return;
  double weight = 0.0;
  for (const SignedViewChange& s : it->second) weight += weight_of(s.sender());
  if (!is_quorum(weight)) return;

  newview_assembled_for_ = target;
  NewView nv;
  nv.view = target;
  nv.proofs = it->second;
  nv.reproposals = compute_reproposals(target, nv.proofs);
  broadcast(nv);
}

bool Pbft::verify_new_view(const NewView& nv) const {
  // Verify the view-change quorum: every proof targets this view, and a
  // QuorumCheck over their senders.
  QuorumCheck check(harness_);
  for (const SignedViewChange& s : nv.proofs) {
    if (s.vc().new_view != nv.view ||
        !check.add(s.sender(), s.digest(), s.signature())) {
      return false;
    }
  }
  if (!check.quorum()) return false;

  // Recompute the re-proposals; a lying primary is rejected here.
  const std::vector<PrePrepare> expected =
      compute_reproposals(nv.view, nv.proofs);
  if (expected.size() != nv.reproposals.size()) return false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].view != nv.reproposals[i].view ||
        expected[i].seq != nv.reproposals[i].seq ||
        !(expected[i].batch == nv.reproposals[i].batch)) {
      return false;
    }
  }
  return true;
}

void Pbft::on_newview(const NewView& nv, ReplicaId from) {
  if (nv.view <= view_) return;
  if (from != primary_of(nv.view)) return;
  if (!verify_new_view(nv)) return;
  install_new_view(nv);
}

void Pbft::install_new_view(const NewView& nv) {
  view_ = nv.view;
  harness_.counters().observed_disruption = true;
  in_view_change_ = false;
  pending_view_ = nv.view;
  last_new_view_ = std::make_shared<const NewView>(nv);
  viewchange_timer_.cancel();
  viewchange_votes_.erase(viewchange_votes_.begin(),
                          viewchange_votes_.upper_bound(nv.view));
  // The proofs are signed claims of their senders' stable checkpoints;
  // if a quorum certifies state above our horizon, we missed committed
  // traffic and should fetch rather than wait for the next checkpoint.
  for (const SignedViewChange& s : nv.proofs) {
    fetch_.note_claim(s.sender(), s.vc().last_executed);
  }

  // Reset consensus state for unexecuted sequence numbers: votes from
  // earlier views are void in the new view.
  for (auto& [seq, slot] : slots_) {
    if (seq > last_executed_) slot = Slot{};
  }

  SeqNum max_seq = last_executed_;
  for (const PrePrepare& pp : nv.reproposals) {
    max_seq = std::max(max_seq, pp.seq);
    if (pp.seq <= last_executed_) continue;
    accept_preprepare(pp);
  }
  next_seq_ = max_seq + 1;
  assigned_.clear();
  // The old view's batch queue is void: its requests are still in
  // pending_requests_ and get re-driven below, through the new primary.
  batch_timer_.cancel();
  batch_queue_.clear();
  queued_ids_.clear();
  cut_deferred_ = false;  // nothing queued, nothing deferred

  // Replay normal-case traffic that raced ahead of our installation.
  replay_future_messages();

  // Re-drive pending client requests in the new view, in request-id
  // order, through the new primary.
  const std::vector<const Request*> redrive = pending_by_id();
  if (is_primary()) {
    for (const Request* request : redrive) {
      enqueue_for_proposal(*request);
    }
    // Don't leave a partial batch waiting on the timer: these requests
    // already aged through a whole view change.
    cut_batch();
  } else {
    for (const Request* request : redrive) {
      send_to(primary_of(view_), *request);
    }
  }
  refresh_request_deadlines();
  arm_request_timer();
  fetch_.maybe_schedule();
}

// --- state transfer --------------------------------------------------------

void Pbft::on_state_adopted(const StateResponse& resp) {
  prune_to(last_executed_);
  if (resp.new_view != nullptr && resp.new_view->view > view_ &&
      verify_new_view(*resp.new_view)) {
    // We also missed a view change during the outage: the relayed
    // NEW-VIEW is self-certifying, so adopt the cluster's view (this
    // replays buffered future-view traffic and re-drives pending
    // requests).
    install_new_view(*resp.new_view);
  } else {
    if (in_view_change_) {
      // Our view change was a lone timeout caused by our own lag — the
      // proven checkpoint shows the cluster committing without us, in a
      // view we now share. Abandon it and rejoin the normal case; if we
      // are still starved the request timer below re-escalates.
      in_view_change_ = false;
      pending_view_ = view_;
      viewchange_timer_.cancel();
    }
    request_timer_.cancel();  // the adoption itself is execution progress
    execute_ready();
    replay_future_messages();
    // Catching up across the outage is cluster-wide progress for every
    // request still pending here, same as a view change.
    refresh_request_deadlines();
    arm_request_timer();
  }
  // Still behind a credible horizon (e.g. the responder itself lagged)?
  // Go again.
  fetch_.maybe_schedule();
  retry_deferred_cut();  // adoption advanced the stable checkpoint
}

}  // namespace findep::replication
