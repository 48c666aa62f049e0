// Helpers shared by the BFT cluster suites (PBFT and HotStuff).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <variant>
#include <vector>

#include "replication/cluster.h"
#include "runtime/registry.h"

namespace findep::replication {

/// Fast-LAN profile: 5-15 ms links and liveness timers tight enough that
/// fault scenarios resolve within a few simulated seconds.
inline ClusterOptions fast_options(std::uint64_t seed = 1) {
  ClusterOptions opt;
  opt.network.min_latency = 0.005;
  opt.network.mean_extra_latency = 0.01;
  opt.replica.request_timeout = 0.8;
  opt.replica.view_change_timeout = 1.2;
  opt.seed = seed;
  return opt;
}

/// The registry's bft_scaling cell for an honest PBFT cluster of `n`
/// replicas committing `requests` client requests in batches of
/// `batch_size`, arriving at `offered_load` requests/s (0: all at t = 0).
inline runtime::Scenario bft_scaling_cell(std::size_t n,
                                          std::size_t batch_size,
                                          int requests,
                                          double offered_load = 0.0) {
  runtime::ParamSet point;
  point.set("n", n);
  point.set("mix", "honest");
  point.set("batch_size", batch_size);
  point.set("requests", requests);
  point.set("offered_load", offered_load);
  return runtime::ScenarioRegistry::global().find("bft_scaling")->factory(
      point);
}

/// Ids of the real (non-noop) requests `replica` executed.
inline std::set<std::uint64_t> executed_ids(const OrderingProtocol& replica) {
  std::set<std::uint64_t> ids;
  for (const ExecutedEntry& e : replica.executed()) {
    if (e.request.id != 0) ids.insert(e.request.id);
  }
  return ids;
}

/// Recounts the honest logs and checks them against what the Cluster
/// recorded as the logs grew: the smallest count of real entries equals
/// min_honest_executed(), and completed_requests() equals the submitted
/// ids some honest replica executed. A log append that bypasses the
/// execution listener shows up here.
inline void expect_recorded_executions_match_logs(const Cluster& cluster) {
  std::size_t min_count = SIZE_MAX;
  bool any_honest = false;
  std::set<std::uint64_t> executed_somewhere;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const OrderingProtocol& replica = cluster.node(i);
    if (replica.behavior() != Behavior::kHonest) continue;
    any_honest = true;
    std::size_t count = 0;
    for (const ExecutedEntry& e : replica.executed()) {
      if (e.request.id == 0) continue;
      ++count;
      executed_somewhere.insert(e.request.id);
    }
    min_count = std::min(min_count, count);
  }
  EXPECT_EQ(cluster.min_honest_executed(), any_honest ? min_count : 0);
  std::size_t completed = 0;
  for (const RequestTrace& t : cluster.traces()) {
    if (executed_somewhere.contains(t.request_id)) ++completed;
  }
  EXPECT_EQ(cluster.completed_requests(), completed);
}

/// Stands in for replica `node`: a spy replaces its handler and records
/// each delivery that carries a request, so the replica itself hears
/// nothing. Make it on a fresh cluster, then submit one request and run
/// until the relays land. expect_client_body_from then checks that the
/// client (id n) delivered the request once, that each replica in
/// `relayers` and no other relayed it once, and that every delivery
/// carried the client's own signed message: sender() is the client, and
/// the body is the one the direct delivery shared.
class RelaySpy {
 public:
  RelaySpy(Cluster& cluster, net::NodeId node) : client_(cluster.size()) {
    // The handler keeps `this`, so a spy stays where it was made.
    cluster.network().attach(node, [this](const net::Message& raw) {
      const Envelope* env = raw.envelope.get<Envelope>();
      if (env == nullptr || !std::holds_alternative<Request>(env->payload())) {
        return;
      }
      deliveries_.push_back({raw.from, env->sender(), &raw.envelope.body()});
    });
  }

  RelaySpy(const RelaySpy&) = delete;
  RelaySpy& operator=(const RelaySpy&) = delete;

  void expect_client_body_from(
      const std::multiset<net::NodeId>& relayers) const {
    const Delivery* direct = nullptr;
    std::multiset<net::NodeId> relayed;
    for (const Delivery& d : deliveries_) {
      if (d.from == client_) {
        EXPECT_EQ(direct, nullptr) << "two direct deliveries";
        direct = &d;
      } else {
        relayed.insert(d.from);
      }
    }
    ASSERT_NE(direct, nullptr);
    EXPECT_EQ(relayed, relayers);
    for (const Delivery& d : deliveries_) {
      EXPECT_EQ(d.signer, client_) << "relayed by " << d.from;
      EXPECT_EQ(d.body, direct->body) << "relayed by " << d.from;
    }
  }

 private:
  struct Delivery {
    net::NodeId from = 0;
    ReplicaId signer = 0;
    const net::Envelope::Body* body = nullptr;
  };
  net::NodeId client_;
  std::vector<Delivery> deliveries_;
};

}  // namespace findep::replication
