#include "net/gossip.h"

#include <algorithm>

#include "support/assert.h"

namespace findep::net {

GossipOverlay::GossipOverlay(SimNetwork& network, std::vector<NodeId> nodes,
                             std::size_t degree, std::uint64_t seed,
                             DeliverFn deliver)
    : network_(&network), deliver_(std::move(deliver)) {
  FINDEP_REQUIRE(!nodes.empty());
  FINDEP_REQUIRE(deliver_ != nullptr);
  const std::size_t n = nodes.size();
  for (std::size_t i = 0; i < n; ++i) {
    FINDEP_REQUIRE_MSG(nodes[i] == i, "gossip nodes must be 0..N-1");
  }

  support::Rng rng(seed);
  adjacency_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& adj = adjacency_[i];
    // Guaranteed-connectivity ring edge.
    if (n > 1) adj.push_back(static_cast<NodeId>((i + 1) % n));
    // Random extra edges.
    for (std::size_t d = 0; d + 1 < degree && n > 2; ++d) {
      for (int attempt = 0; attempt < 16; ++attempt) {
        const auto candidate = static_cast<NodeId>(rng.below(n));
        if (candidate == i) continue;
        if (std::find(adj.begin(), adj.end(), candidate) != adj.end()) {
          continue;
        }
        adj.push_back(candidate);
        break;
      }
    }
  }

  for (const NodeId node : nodes) {
    network_->attach(node, [this, node](const Message& msg) {
      receive(node, msg.envelope);
    });
  }
}

void GossipOverlay::publish(NodeId origin, GossipItem item) {
  FINDEP_REQUIRE_MSG(origin < adjacency_.size(),
                     "publish from a node outside the overlay");
  receive(origin, Envelope(std::move(item)));
}

void GossipOverlay::receive(NodeId node, const Envelope& envelope) {
  const GossipItem* item = envelope.get<GossipItem>();
  FINDEP_ASSERT(item != nullptr);
  const std::size_t n = adjacency_.size();
  const auto [it, fresh] = item_index_.try_emplace(
      item->id, static_cast<std::uint32_t>(item_index_.size()));
  if (fresh) seen_.resize(seen_.size() + n);
  const std::size_t bit = it->second * n + node;
  if (seen_[bit]) return;  // duplicate
  seen_[bit] = true;
  deliver_(node, *item);
  // Every hop forwards the body it received: one body per published item.
  for (const NodeId neighbour : adjacency_[node]) {
    network_->send(node, neighbour, envelope, item->bytes);
  }
}

const std::vector<NodeId>& GossipOverlay::neighbours(NodeId node) const {
  FINDEP_REQUIRE(node < adjacency_.size());
  return adjacency_[node];
}

bool GossipOverlay::has_seen(NodeId node,
                             const crypto::Digest& id) const {
  if (node >= adjacency_.size()) return false;
  const auto it = item_index_.find(id);
  return it != item_index_.end() &&
         seen_[it->second * adjacency_.size() + node];
}

}  // namespace findep::net
