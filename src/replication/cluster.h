// Cluster: a whole replicated deployment in one object — replicas,
// client, simulated network — plus the safety/liveness checkers the
// experiments assert on. This is the harness both the test suite and the
// benchmark binaries drive. The ordering protocol is an axis: the same
// cluster object runs a PBFT deployment or a chained-HotStuff one
// (ClusterOptions::protocol), exposing the protocol-neutral observable
// surface either way.
#pragma once

#include <memory>
#include <vector>

#include "net/network.h"
#include "replication/hotstuff.h"
#include "replication/pbft.h"
#include "sim/simulator.h"

namespace findep::replication {

struct ClusterOptions {
  net::NetworkOptions network;
  ReplicaOptions replica;
  std::uint64_t seed = 99;
  /// Which ordering protocol every replica runs.
  Protocol protocol = Protocol::kPbft;
};

/// Per-request latency record (submit time → first honest execution).
struct RequestTrace {
  std::uint64_t request_id = 0;
  double submitted_at = 0.0;
  double executed_at = -1.0;  // < 0 while unexecuted

  [[nodiscard]] bool done() const noexcept { return executed_at >= 0.0; }
  [[nodiscard]] double latency() const noexcept {
    return executed_at - submitted_at;
  }
};

class Cluster {
 public:
  /// Unit-weight cluster of n replicas with the given behaviours
  /// (`behaviors` may be shorter than n; missing entries are honest).
  Cluster(std::size_t n, ClusterOptions options,
          std::vector<Behavior> behaviors = {});

  /// Weighted cluster: `weights[i]` is replica i's voting power.
  Cluster(std::vector<double> weights, ClusterOptions options,
          std::vector<Behavior> behaviors);

  /// Submits a fresh client request (to every replica, as a PBFT client
  /// would on retry; dedup is by request id). Returns the request id.
  std::uint64_t submit();

  /// Runs the simulation until all honest replicas have executed at least
  /// `count` entries or `deadline` (simulated seconds) passes. Returns
  /// true when the target was reached.
  bool run_until_executed(std::size_t count, double deadline);

  /// Runs the simulation for `duration` simulated seconds.
  void run_for(double duration);

  /// Safety: executed logs of honest replicas are pairwise
  /// prefix-consistent (same request digest at every common seq).
  [[nodiscard]] bool logs_consistent() const;

  /// Minimum executed count over honest replicas.
  [[nodiscard]] std::size_t min_honest_executed() const;

  [[nodiscard]] std::size_t size() const noexcept { return replicas_.size(); }
  /// Protocol-neutral view of replica i (what generic metrics read).
  [[nodiscard]] OrderingProtocol& node(std::size_t i) {
    return *replicas_[i];
  }
  [[nodiscard]] const OrderingProtocol& node(std::size_t i) const {
    return *replicas_[i];
  }
  /// PBFT-typed view of replica i. Requires protocol == kPbft.
  [[nodiscard]] Pbft& replica(std::size_t i);
  [[nodiscard]] const Pbft& replica(std::size_t i) const;
  /// HotStuff-typed view of replica i. Requires protocol == kHotStuff.
  [[nodiscard]] HotStuff& hotstuff(std::size_t i);
  [[nodiscard]] const HotStuff& hotstuff(std::size_t i) const;
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] net::SimNetwork& network() noexcept { return *network_; }
  [[nodiscard]] const std::vector<RequestTrace>& traces() const noexcept {
    return traces_;
  }

  /// Mean commit latency over completed requests (seconds); requires at
  /// least one completed request.
  [[nodiscard]] double mean_latency() const;

  /// Nearest-rank latency percentile over completed requests (seconds);
  /// `q` in (0, 1], e.g. 0.5 for the median, 0.99 for p99. Requires at
  /// least one completed request.
  [[nodiscard]] double latency_percentile(double q) const;

  /// Number of submitted requests some honest replica has executed.
  /// Batching note: a RequestTrace completes when its *request* first
  /// executes at an honest replica — slot (batch) granularity never leaks
  /// into latency semantics.
  [[nodiscard]] std::size_t completed_requests() const;

  /// Simulated time of the last request completion (0 when none).
  [[nodiscard]] double last_completion_time() const;

  /// Highest execution horizon over honest replicas.
  [[nodiscard]] SeqNum max_honest_last_executed() const;

  /// Honest replicas whose execution horizon trails the honest maximum —
  /// the laggards state transfer exists to rescue (0 once converged).
  [[nodiscard]] std::size_t stranded_replicas() const;

  /// One Telemetry counter summed over every replica, and its maximum
  /// over every replica; victims and Byzantine replicas included. E.g.
  /// the `max_view_changes` metric is most(&Telemetry::disruptions).
  [[nodiscard]] std::uint64_t total(std::uint64_t Telemetry::*field) const;
  [[nodiscard]] std::uint64_t most(std::uint64_t Telemetry::*field) const;

 private:
  void init(std::vector<double> weights, std::vector<Behavior> behaviors);
  /// The execution listener of replica `replica`: counts each real entry
  /// its log gains and stamps a request's first honest execution.
  void record_execution(std::size_t replica, const ExecutedEntry& e);

  sim::Simulator sim_;
  ClusterOptions options_;
  std::unique_ptr<net::SimNetwork> network_;
  crypto::KeyRegistry registry_;
  std::unique_ptr<crypto::KeyPair> client_keys_;
  std::vector<std::unique_ptr<OrderingProtocol>> replicas_;
  std::vector<Behavior> behaviors_;
  std::vector<RequestTrace> traces_;
  /// Real (non-noop) entries in each replica's log, counted as they are
  /// appended.
  std::vector<std::size_t> real_executed_;
  /// Some log gained a real entry since run_until_executed last looked.
  bool executed_grew_ = false;
  std::uint64_t next_request_id_ = 1;
  net::NodeId client_id_ = 0;
};

}  // namespace findep::replication
