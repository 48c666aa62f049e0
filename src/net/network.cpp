#include "net/network.h"

#include <algorithm>
#include <utility>

#include "support/assert.h"

namespace findep::net {

SimNetwork::SimNetwork(sim::Simulator& simulator, NetworkOptions options)
    : sim_(&simulator), options_(options), rng_(options.seed) {
  FINDEP_REQUIRE(options.min_latency >= 0.0);
  FINDEP_REQUIRE(options.mean_extra_latency >= 0.0);
  FINDEP_REQUIRE(options.drop_probability >= 0.0 &&
                 options.drop_probability <= 1.0);
}

void SimNetwork::cover(NodeId node) {
  if (node < handlers_.size()) return;
  const std::size_t size = static_cast<std::size_t>(node) + 1;
  handlers_.resize(size);
  down_.resize(size, 0);
  partition_group_.resize(size, 0);
}

void SimNetwork::attach(NodeId node, Handler handler) {
  FINDEP_REQUIRE(handler != nullptr);
  FINDEP_REQUIRE_MSG(!delivering_, "attach() during a delivery");
  cover(node);
  if (!handlers_[node]) ++attached_;
  handlers_[node] = std::move(handler);
}

double SimNetwork::sample_latency(NodeId from, NodeId to) {
  double latency = options_.min_latency;
  if (options_.mean_extra_latency > 0.0) {
    latency += rng_.exponential(1.0 / options_.mean_extra_latency);
  }
  if (delay_policy_) {
    const double extra = delay_policy_(from, to);
    FINDEP_ASSERT(extra >= 0.0);
    latency += extra;
  }
  return latency;
}

void SimNetwork::send(NodeId from, NodeId to, Envelope envelope,
                      std::uint64_t bytes) {
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;

  if (to >= handlers_.size() || !handlers_[to]) {
    ++stats_.messages_dropped;
    return;
  }

  if (is_down(from) || down_[to] != 0) {
    // A crashed node neither sends nor receives (the delivery-time check
    // below covers messages already in flight when the target crashed).
    ++stats_.messages_dropped;
    return;
  }

  if (from != to) {
    if (group_of(from) != partition_group_[to]) {
      ++stats_.messages_dropped;
      return;
    }
    if (filter_ && !filter_(from, to)) {
      ++stats_.messages_dropped;
      return;
    }
    if (options_.drop_probability > 0.0 &&
        rng_.chance(options_.drop_probability)) {
      ++stats_.messages_dropped;
      return;
    }
  }

  bool corrupted = false;
  if (corrupt_ && from != to && corrupt_(from, to)) {
    corrupted = true;
    ++stats_.messages_corrupted;
  }

  const double latency = from == to ? 0.0 : sample_latency(from, to);
  // Capture by value; the handler is read at delivery time (the target
  // may crash, or be re-attached, while the message is in flight). The
  // capture shares the envelope body, it does not copy it.
  Message msg{from, to, bytes, std::move(envelope), corrupted};
  sim_->schedule_after(latency, [this, msg = std::move(msg)]() mutable {
    if (down_[msg.to] != 0) {
      ++stats_.messages_dropped;  // crashed while the message was in flight
      return;
    }
    // The tables never shrink and a handler is never removed, so the
    // target that send() found is still attached.
    ++stats_.messages_delivered;
    delivering_ = true;
    handlers_[msg.to](msg);
    delivering_ = false;
  });
}

void SimNetwork::broadcast(NodeId from, const Envelope& envelope,
                           std::uint64_t bytes) {
  // Ascending NodeId order, deterministic by construction. Each send()
  // copies only the envelope handle; the body is shared by all
  // recipients (one allocation for the whole broadcast).
  for (NodeId to = 0; to < handlers_.size(); ++to) {
    if (to != from && handlers_[to]) send(from, to, envelope, bytes);
  }
}

void SimNetwork::set_partition_group(NodeId node, std::uint32_t group) {
  cover(node);
  partition_group_[node] = group;
}

void SimNetwork::heal_partitions() {
  std::fill(partition_group_.begin(), partition_group_.end(), 0);
}

void SimNetwork::set_node_down(NodeId node, bool down) {
  cover(node);
  down_[node] = down ? 1 : 0;
}

}  // namespace findep::net
