// Gossip/flood overlay for block and transaction dissemination.
//
// Nakamoto-style protocols propagate blocks over a sparse random overlay
// rather than all-to-all links. The overlay builds a connected random
// k-regular-ish graph; `publish` floods an item with per-node
// deduplication. Fork rates in the PoW experiments are driven directly by
// the propagation delays this overlay produces.
//
// State is dense: gossip nodes are 0..N-1 (the dense-id rule of
// SimNetwork's node tables, DESIGN.md "Node tables"), so adjacency is a
// vector indexed by NodeId, and each item gets an index in first-seen
// order plus one seen-bit per node. A receive costs one probe into the
// small item table and one bit test; a published item's single body is
// the one every hop forwards.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "crypto/sha256.h"
#include "net/envelope.h"  // GossipItem lives with the typed envelope
#include "net/network.h"

namespace findep::net {

class GossipOverlay {
 public:
  /// Called exactly once per node per item (first receipt), including on
  /// the publisher itself.
  using DeliverFn = std::function<void(NodeId node, const GossipItem& item)>;

  /// Builds the overlay over `nodes`, which must be 0..N-1 in order,
  /// wiring handlers into `network`. Each node gets `degree` random
  /// outgoing neighbours (the union graph is almost surely connected for
  /// degree ≥ 3; we additionally force a ring edge so connectivity is
  /// guaranteed).
  GossipOverlay(SimNetwork& network, std::vector<NodeId> nodes,
                std::size_t degree, std::uint64_t seed, DeliverFn deliver);

  /// Injects an item at overlay node `origin`; it is delivered locally
  /// and flooded. Builds the only body the flood carries.
  void publish(NodeId origin, GossipItem item);

  [[nodiscard]] const std::vector<NodeId>& neighbours(NodeId node) const;

  /// True when `node` has already seen `id` (false for an unknown node
  /// or item).
  [[nodiscard]] bool has_seen(NodeId node, const crypto::Digest& id) const;

 private:
  /// First receipt delivers and forwards `envelope` itself; repeats stop.
  void receive(NodeId node, const Envelope& envelope);

  SimNetwork* network_;
  /// Out-neighbours of node i at slot i.
  std::vector<std::vector<NodeId>> adjacency_;
  /// Item digest -> dense item index (probed, never iterated).
  std::unordered_map<crypto::Digest, std::uint32_t> item_index_;
  /// One seen-bit per (item, node), at item * N + node.
  std::vector<bool> seen_;
  DeliverFn deliver_;
};

}  // namespace findep::net
