// Helpers shared by the PBFT cluster suites.
#pragma once

#include <cstdint>
#include <set>

#include "replication/cluster.h"

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

/// Ids of the real (non-noop) requests `replica` executed.
inline std::set<std::uint64_t> executed_ids(const OrderingProtocol& replica) {
  std::set<std::uint64_t> ids;
  for (const ExecutedEntry& e : replica.executed()) {
    if (e.request.id != 0) ids.insert(e.request.id);
  }
  return ids;
}

}  // namespace findep::replication
