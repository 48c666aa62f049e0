#include "replication/cluster.h"

#include <algorithm>
#include <cmath>

#include "support/assert.h"

namespace findep::replication {

Cluster::Cluster(std::size_t n, ClusterOptions options,
                 std::vector<Behavior> behaviors)
    : options_(options) {
  FINDEP_REQUIRE(n >= 4);
  init(std::vector<double>(n, 1.0), std::move(behaviors));
}

Cluster::Cluster(std::vector<double> weights, ClusterOptions options,
                 std::vector<Behavior> behaviors)
    : options_(options) {
  init(std::move(weights), std::move(behaviors));
}

void Cluster::init(std::vector<double> weights,
                   std::vector<Behavior> behaviors) {
  const std::size_t n = weights.size();
  FINDEP_REQUIRE(n >= 4);
  behaviors.resize(n, Behavior::kHonest);
  behaviors_ = behaviors;

  net::NetworkOptions net_options = options_.network;
  net_options.seed = support::mix64(options_.seed ^ 0x6e65740a);
  network_ = std::make_unique<net::SimNetwork>(sim_, net_options);

  // Keys: deterministic per replica id, plus one client key.
  std::vector<crypto::PublicKey> directory;
  std::vector<crypto::KeyPair> keys;
  directory.reserve(n);
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(crypto::KeyPair::derive(options_.seed * 1000003 + i));
    registry_.enroll(keys.back());
    directory.push_back(keys.back().public_key());
  }
  client_keys_ = std::make_unique<crypto::KeyPair>(
      crypto::KeyPair::derive(options_.seed * 1000003 + n));
  registry_.enroll(*client_keys_);
  client_id_ = static_cast<net::NodeId>(n);

  real_executed_.assign(n, 0);
  ReplicaOptions ropts = options_.replica;
  for (std::size_t i = 0; i < n; ++i) {
    ropts.behavior = behaviors_[i];
    // Replica-local RNG (random peer choice in state transfer), derived
    // per replica from the cluster seed so runs stay reproducible.
    ropts.rng_seed = support::mix64(options_.seed ^ (0xb1f70000ULL + i));
    if (options_.protocol == Protocol::kHotStuff) {
      replicas_.push_back(std::make_unique<HotStuff>(
          static_cast<ReplicaId>(i), weights, directory, registry_,
          keys[i], *network_, ropts));
    } else {
      replicas_.push_back(std::make_unique<Pbft>(
          static_cast<ReplicaId>(i), weights, directory, registry_,
          keys[i], *network_, ropts));
    }
    replicas_.back()->set_execution_listener(
        [this, i](const ExecutedEntry& e) { record_execution(i, e); });
    replicas_.back()->start();
  }
}

Pbft& Cluster::replica(std::size_t i) {
  FINDEP_REQUIRE_MSG(options_.protocol == Protocol::kPbft,
                     "replica() requires protocol=pbft; use node()");
  return static_cast<Pbft&>(*replicas_[i]);
}

const Pbft& Cluster::replica(std::size_t i) const {
  FINDEP_REQUIRE_MSG(options_.protocol == Protocol::kPbft,
                     "replica() requires protocol=pbft; use node()");
  return static_cast<const Pbft&>(*replicas_[i]);
}

HotStuff& Cluster::hotstuff(std::size_t i) {
  FINDEP_REQUIRE_MSG(
      options_.protocol == Protocol::kHotStuff,
      "hotstuff() requires protocol=hotstuff; use node()");
  return static_cast<HotStuff&>(*replicas_[i]);
}

const HotStuff& Cluster::hotstuff(std::size_t i) const {
  FINDEP_REQUIRE_MSG(
      options_.protocol == Protocol::kHotStuff,
      "hotstuff() requires protocol=hotstuff; use node()");
  return static_cast<const HotStuff&>(*replicas_[i]);
}

std::uint64_t Cluster::submit() {
  const std::uint64_t rid = next_request_id_++;
  Request request;
  request.id = rid;
  request.operation = crypto::Sha256{}
                          .update("findep/bft/op/v1")
                          .update_u64(rid)
                          .update_u64(options_.seed)
                          .finish();
  traces_.push_back(RequestTrace{rid, sim_.now(), -1.0});

  // The client is not attached, so a network broadcast reaches exactly
  // the replicas — with one shared body instead of n payload copies.
  const net::Envelope wire(make_envelope(client_id_, *client_keys_, request));
  network_->broadcast(client_id_, wire, payload_wire_bytes(Payload{request}));
  return rid;
}

void Cluster::record_execution(std::size_t replica, const ExecutedEntry& e) {
  if (e.request.id == 0) return;  // a no-op filler, not a request
  ++real_executed_[replica];
  executed_grew_ = true;
  if (behaviors_[replica] != Behavior::kHonest) return;
  // The earliest honest execution time per request. The listener runs in
  // the step that executes, so now() is that step's time.
  const std::size_t idx = static_cast<std::size_t>(e.request.id) - 1;
  if (idx < traces_.size() && !traces_[idx].done()) {
    traces_[idx].executed_at = sim_.now();
  }
}

bool Cluster::run_until_executed(std::size_t count, double deadline) {
  bool reached = min_honest_executed() >= count;
  while (!reached && sim_.now() < deadline && sim_.has_pending()) {
    executed_grew_ = false;
    sim_.step();
    if (executed_grew_) reached = min_honest_executed() >= count;
  }
  return reached;
}

void Cluster::run_for(double duration) {
  const double deadline = sim_.now() + duration;
  while (sim_.now() < deadline && sim_.has_pending()) sim_.step();
}

bool Cluster::logs_consistent() const {
  const OrderingProtocol* reference = nullptr;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (behaviors_[i] != Behavior::kHonest) continue;
    if (reference == nullptr) {
      reference = replicas_[i].get();
      continue;
    }
    const auto& a = reference->executed();
    const auto& b = replicas_[i]->executed();
    const std::size_t common = std::min(a.size(), b.size());
    for (std::size_t j = 0; j < common; ++j) {
      if (a[j].seq != b[j].seq ||
          !(a[j].request == b[j].request)) {
        return false;
      }
    }
  }
  return true;
}

std::size_t Cluster::min_honest_executed() const {
  std::size_t min_count = SIZE_MAX;
  bool any = false;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (behaviors_[i] != Behavior::kHonest) continue;
    any = true;
    min_count = std::min(min_count, real_executed_[i]);
  }
  return any ? min_count : 0;
}

std::size_t Cluster::completed_requests() const {
  std::size_t count = 0;
  for (const RequestTrace& t : traces_) {
    if (t.done()) ++count;
  }
  return count;
}

double Cluster::last_completion_time() const {
  double latest = 0.0;
  for (const RequestTrace& t : traces_) {
    if (t.done()) latest = std::max(latest, t.executed_at);
  }
  return latest;
}

SeqNum Cluster::max_honest_last_executed() const {
  SeqNum max_seq = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (behaviors_[i] != Behavior::kHonest) continue;
    max_seq = std::max(max_seq, replicas_[i]->last_executed());
  }
  return max_seq;
}

std::size_t Cluster::stranded_replicas() const {
  const SeqNum horizon = max_honest_last_executed();
  std::size_t count = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (behaviors_[i] != Behavior::kHonest) continue;
    if (replicas_[i]->last_executed() < horizon) ++count;
  }
  return count;
}

std::uint64_t Cluster::total(std::uint64_t Telemetry::*field) const {
  std::uint64_t sum = 0;
  for (const auto& replica : replicas_) sum += replica->telemetry().*field;
  return sum;
}

std::uint64_t Cluster::most(std::uint64_t Telemetry::*field) const {
  std::uint64_t max = 0;
  for (const auto& replica : replicas_) {
    max = std::max(max, replica->telemetry().*field);
  }
  return max;
}

double Cluster::mean_latency() const {
  double sum = 0.0;
  std::size_t count = 0;
  for (const RequestTrace& t : traces_) {
    if (t.done()) {
      sum += t.latency();
      ++count;
    }
  }
  FINDEP_REQUIRE_MSG(count > 0, "no completed requests");
  return sum / static_cast<double>(count);
}

double Cluster::latency_percentile(double q) const {
  FINDEP_REQUIRE(q > 0.0 && q <= 1.0);
  std::vector<double> latencies;
  latencies.reserve(traces_.size());
  for (const RequestTrace& t : traces_) {
    if (t.done()) latencies.push_back(t.latency());
  }
  FINDEP_REQUIRE_MSG(!latencies.empty(), "no completed requests");
  std::sort(latencies.begin(), latencies.end());
  // Nearest-rank: the smallest latency with at least q of the mass at or
  // below it.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(latencies.size())));
  return latencies[std::max<std::size_t>(rank, 1) - 1];
}

}  // namespace findep::replication
