#include "replication/harness.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "replication/protocol.h"
#include "support/assert.h"

namespace findep::replication {

NodeHarness::NodeHarness(OrderingProtocol& protocol, bft::ReplicaId id,
                         std::vector<double> weights,
                         std::vector<crypto::PublicKey> directory,
                         crypto::KeyRegistry& registry, crypto::KeyPair keys,
                         net::SimNetwork& network, ReplicaOptions options)
    : protocol_(&protocol),
      id_(id),
      weights_(std::move(weights)),
      directory_(std::move(directory)),
      registry_(&registry),
      keys_(std::move(keys)),
      network_(&network),
      options_(std::move(options)) {
  FINDEP_REQUIRE(id_ < weights_.size());
  FINDEP_REQUIRE(weights_.size() == directory_.size());
  FINDEP_REQUIRE(weights_.size() >= 4);  // tolerate at least one fault
  validate_replica_options(options_);
  for (const double w : weights_) {
    FINDEP_REQUIRE(w > 0.0);
    total_weight_ += w;
  }
  FINDEP_REQUIRE_MSG(directory_[id_] == keys_.public_key(),
                     "key pair must match the directory entry");
  if (!options_.cost_model.is_free()) {
    verify_pool_ = std::make_unique<runtime::WorkerPool<net::Message>>(
        network_->simulator(), options_.crypto_workers,
        [this](const net::Message& raw) {
          return protocol_->verify_stale(
              raw.envelope.get<bft::Envelope>()->payload());
        },
        [this](const net::Message& raw, bool dropped) {
          if (!dropped) verify_and_dispatch(raw);
        });
  }
}

double NodeHarness::weight_of(bft::ReplicaId r) const {
  FINDEP_REQUIRE(r < weights_.size());
  return weights_[r];
}

Telemetry NodeHarness::telemetry() const {
  Telemetry snapshot = telemetry_;
  if (verify_pool_ != nullptr) {
    snapshot.verify_tasks = verify_pool_->stats().submitted;
    snapshot.verify_dropped_stale = verify_pool_->stats().dropped_stale;
  }
  return snapshot;
}

void NodeHarness::start() {
  FINDEP_REQUIRE_MSG(!started_, "start() called twice");
  started_ = true;
  network_->attach(id_,
                   [this](const net::Message& msg) { on_message(msg); });
}

void NodeHarness::broadcast(bft::Payload payload) {
  if (options_.behavior == Behavior::kSilent) return;
  const std::uint64_t bytes = bft::payload_wire_bytes(payload);
  // One shared body for the whole fan-out (every replica is attached, so
  // the network broadcast reaches exactly the other replicas)...
  const net::Envelope wire(
      bft::make_envelope(id_, keys_, std::move(payload)));
  if (options_.cost_model.is_free()) {
    network_->broadcast(id_, wire, bytes);
    // ...then the "send to yourself" leg, sharing the same body.
    network_->send(id_, id_, wire, bytes);
    return;
  }
  // Modeled signing occupies the protocol core: back-to-back sends
  // serialize behind the sign accumulator, and the wire only leaves once
  // its signature is done. One signature covers the whole fan-out.
  sim::Simulator& sim = network_->simulator();
  sign_ready_at_ = std::max(sign_ready_at_, sim.now()) +
                   options_.cost_model.sign_seconds();
  sim.schedule_at(sign_ready_at_, [this, wire, bytes] {
    network_->broadcast(id_, wire, bytes);
    network_->send(id_, id_, wire, bytes);
  });
}

void NodeHarness::send_to(net::NodeId to, bft::Payload payload) {
  if (options_.behavior == Behavior::kSilent) return;
  const std::uint64_t bytes = bft::payload_wire_bytes(payload);
  // A Request sent here is a re-drive (Pbft::install_new_view,
  // HotStuff::round_expired); client requests are forwarded by relay().
  // A re-driving replica may know the request only from a proposal, whose
  // batch carries bare requests, so it has no client body to forward and
  // signs a fresh envelope. A real deployment would forward the client's
  // signed request, so a re-drive is charged no sign time, like a relay,
  // and does not serialize behind protocol sends (a replica re-driving a
  // large backlog would otherwise delay its own votes by the whole
  // backlog's worth of signing).
  const bool redrive = std::holds_alternative<bft::Request>(payload);
  const net::Envelope wire(
      bft::make_envelope(id_, keys_, std::move(payload)));
  if (options_.cost_model.is_free() || redrive) {
    network_->send(id_, to, wire, bytes);
    return;
  }
  sim::Simulator& sim = network_->simulator();
  sign_ready_at_ = std::max(sign_ready_at_, sim.now()) +
                   options_.cost_model.sign_seconds();
  sim.schedule_at(sign_ready_at_, [this, to, wire, bytes] {
    network_->send(id_, to, wire, bytes);
  });
}

void NodeHarness::relay(net::NodeId to, const net::Envelope& wire,
                        std::uint64_t bytes) {
  const bft::Envelope* env = wire.get<bft::Envelope>();
  FINDEP_REQUIRE(env != nullptr &&
                 std::holds_alternative<bft::Request>(env->payload()));
  // Forwarding a client request ships the client's own signed message: it
  // is not a statement by this replica, so it takes no signature and no
  // place behind the sign accumulator.
  if (env->sender() < n() || options_.behavior == Behavior::kSilent) return;
  network_->send(id_, to, wire, bytes);
}

void NodeHarness::on_message(const net::Message& raw) {
  if (raw.corrupted) {
    // In-flight bit flip: the signature check a real deployment runs over
    // the wire bytes fails, so the message dies before any dispatch. The
    // rejection is counted — observable detection of the fault.
    ++telemetry_.corrupted_rejected;
    return;
  }
  if (options_.behavior == Behavior::kSilent) return;
  const bft::Envelope* env = raw.envelope.get<bft::Envelope>();
  if (env == nullptr) return;  // foreign traffic
  // Authentication: the claimed sender key must be the directory entry
  // (clients are outside the directory and allowed for Request only).
  const bool from_replica = env->sender() < weights_.size();
  if (from_replica && directory_[env->sender()] != env->sender_key()) return;
  if (verify_pool_ == nullptr || env->sender() == id_) {
    // crypto=free (no pool), or our own loopback leg. A replica is not
    // charged modeled time to check its own signature, so the self-send
    // still verifies, but inline rather than on the worker pool.
    verify_and_dispatch(raw);
    return;
  }
  offload_verify(raw, *env);
}

void NodeHarness::verify_and_dispatch(const net::Message& raw) {
  if (!bft::verify_envelope(*registry_, *raw.envelope.get<bft::Envelope>())) {
    return;
  }
  protocol_->dispatch_payload(raw.envelope, raw.from, raw.bytes);
}

void NodeHarness::offload_verify(const net::Message& raw,
                                 const bft::Envelope& env) {
  // Client requests are speculative: every protocol tolerates them late
  // (they only seed batches), so quorum-forming consensus and recovery
  // traffic always verifies first.
  const runtime::TaskPriority priority =
      std::holds_alternative<bft::Request>(env.payload())
          ? runtime::TaskPriority::kSpeculative
          : runtime::TaskPriority::kCritical;
  // Quorum proofs ride one envelope and are batch-verified with it (a
  // NEW-VIEW carries its view-change quorum, a proposal its QC, a state
  // response its checkpoint vote quorum). Everything else is one
  // signature check.
  double cost = options_.cost_model.verify_seconds();
  if (const auto proofs = bft::proof_signatures(env.payload())) {
    cost += options_.cost_model.batch_verify_seconds(*proofs);
  }
  // The pool holds the message, and with it the shared body, until its
  // completion verifies and dispatches it.
  verify_pool_->submit(priority, cost, raw);
}

bool QuorumCheck::add(bft::ReplicaId signer, const crypto::Digest& digest,
                      const crypto::Signature& signature) {
  if (signer >= seen_.size() || seen_[signer]) return false;
  if (!harness_->registry().verify(harness_->directory()[signer], digest,
                                   signature)) {
    return false;
  }
  seen_[signer] = true;
  weight_ += harness_->weight_of(signer);
  return true;
}

}  // namespace findep::replication
