// Simulated point-to-point network.
//
// Delivery runs on the discrete-event engine with configurable latency,
// loss and partitions. The adversary surface matches §II-B: through the
// `MessageFilter`/`DelayPolicy` hooks an attacker may "arbitrarily delay,
// drop, re-order" traffic of compromised links — injection and
// modification are modeled at the protocol layer (a Byzantine node sends
// whatever it wants; honest-node signatures make undetected modification
// of others' messages impossible, which the protocols rely on).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/envelope.h"
#include "net/types.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace findep::net {

/// A delivered message. The envelope body is shared and immutable: a
/// broadcast delivers the same body to every recipient.
struct Message {
  NodeId from = 0;
  NodeId to = 0;
  std::uint64_t bytes = 0;
  Envelope envelope;
  /// Payload bits were flipped in flight (CorruptPolicy). The envelope
  /// body itself is shared and never mutated; receivers model the
  /// signature-verification failure a real deployment would hit and must
  /// reject the message without dispatching it.
  bool corrupted = false;
};

/// Latency/loss parameters.
struct NetworkOptions {
  /// Propagation floor in seconds (one-way).
  double min_latency = 0.010;
  /// Mean of the exponential latency tail added on top of the floor.
  double mean_extra_latency = 0.040;
  /// Uniform random loss applied to every link.
  double drop_probability = 0.0;
  std::uint64_t seed = 1;
};

/// Traffic counters (per network).
struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_corrupted = 0;
  std::uint64_t bytes_sent = 0;
};

/// Simulated network. Nodes register handlers; send() schedules delivery.
class SimNetwork {
 public:
  using Handler = std::function<void(const Message&)>;
  /// Return false to drop the message (adversarial or partition cut).
  using MessageFilter = std::function<bool(NodeId from, NodeId to)>;
  /// Extra one-way delay in seconds for a link (adversarial delay).
  using DelayPolicy = std::function<double(NodeId from, NodeId to)>;
  /// Return true to flip payload bits in flight: the message is still
  /// delivered, flagged `corrupted`, and the receiver rejects it as a
  /// signature failure. Distinct from a drop — corruption is *observable*
  /// at the receiver, which is what fault-detection experiments measure.
  using CorruptPolicy = std::function<bool(NodeId from, NodeId to)>;

  SimNetwork(sim::Simulator& simulator, NetworkOptions options);

  /// Registers (or replaces) the delivery handler of a node. Call it
  /// while setting up, not from inside a delivery: growing the handler
  /// table would move the handler that is running.
  void attach(NodeId node, Handler handler);

  /// Attached nodes (a re-attached node counts once).
  [[nodiscard]] std::size_t node_count() const noexcept { return attached_; }

  /// Sends `envelope` from -> to; delivery is scheduled unless dropped by
  /// loss, partition or the filter. Self-sends are delivered with zero
  /// latency (local loopback). Copying the envelope only bumps the shared
  /// body's refcount.
  void send(NodeId from, NodeId to, Envelope envelope,
            std::uint64_t bytes = 256);

  /// Sends to every attached node except `from`. All deliveries share one
  /// immutable body; `bytes` is accounted once per recipient, exactly as
  /// the equivalent per-recipient send() loop would.
  void broadcast(NodeId from, const Envelope& envelope,
                 std::uint64_t bytes = 256);

  /// Assigns `node` to a partition group; messages crossing groups are
  /// dropped. All nodes start in group 0.
  void set_partition_group(NodeId node, std::uint32_t group);
  /// Returns every node to group 0.
  void heal_partitions();

  /// Crashes (down = true) or restarts (down = false) a node. A down node
  /// neither sends nor receives: sends are dropped at the source, and
  /// in-flight messages addressed to it are dropped at delivery time —
  /// exactly the window a real crash loses. The node's handler stays
  /// attached, so a restart resumes delivery with no re-registration.
  void set_node_down(NodeId node, bool down);
  [[nodiscard]] bool is_down(NodeId node) const noexcept {
    return node < down_.size() && down_[node] != 0;
  }

  /// Installs an adversarial filter (nullptr clears).
  void set_filter(MessageFilter filter) { filter_ = std::move(filter); }
  /// Installs an adversarial delay policy (nullptr clears).
  void set_delay_policy(DelayPolicy policy) {
    delay_policy_ = std::move(policy);
  }
  /// Installs a corruption policy (nullptr clears).
  void set_corrupt_policy(CorruptPolicy policy) {
    corrupt_ = std::move(policy);
  }

  [[nodiscard]] const TrafficStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = TrafficStats{}; }

  [[nodiscard]] sim::Simulator& simulator() noexcept { return *sim_; }

 private:
  [[nodiscard]] double sample_latency(NodeId from, NodeId to);
  /// Grows the per-node tables to cover `node`.
  void cover(NodeId node);
  [[nodiscard]] std::uint32_t group_of(NodeId node) const noexcept {
    return node < partition_group_.size() ? partition_group_[node] : 0;
  }

  sim::Simulator* sim_;
  NetworkOptions options_;
  support::Rng rng_;
  // Per-node tables indexed by NodeId, all of one length. Every id in
  // findep is a small dense integer (replicas 0..n-1 with the client at
  // n, the attestation service next to its replicas, gossip nodes
  // 0..N-1), so a vector slot replaces a hash lookup on every send and
  // delivery. An id past the tables has no handler, is up and is in
  // group 0.
  std::vector<Handler> handlers_;  ///< empty until attach()
  std::vector<std::uint8_t> down_;
  std::vector<std::uint32_t> partition_group_;
  std::size_t attached_ = 0;
  /// A handler is running; attach() must not grow the table under it.
  bool delivering_ = false;
  MessageFilter filter_;
  DelayPolicy delay_policy_;
  CorruptPolicy corrupt_;
  TrafficStats stats_;
};

}  // namespace findep::net
