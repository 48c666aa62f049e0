// The PBFT scaling run function (§IV-B overhead side of the (κ, ω)
// trade-off), shared by the bft_scaling and bft_batching families: one
// cluster size / behaviour mix per instance, swept across seeds by the
// runtime. Seeds come exclusively from the RunContext, so a whole sweep
// is reproducible from one --seed flag.
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "replication/cluster.h"
#include "runtime/param.h"
#include "runtime/registry.h"
#include "support/assert.h"

namespace findep::scenarios {
namespace {

/// Simulated seconds a cell may run before it counts as incomplete.
constexpr double kDeadline = 240.0;

struct Params {
  std::size_t n = 4;
  /// May be shorter than n; missing entries are honest.
  std::vector<replication::Behavior> behaviors;
  int requests = 5;
  /// Primary-side batching: requests agreed per consensus instance.
  std::size_t batch_size = 1;
  /// Client arrival rate in requests/second; 0 = all at t = 0.
  double offered_load = 0.0;
  /// Modeled crypto cost (the `crypto` axis). The default free model
  /// keeps the instance bit-identical to historical output; a non-free
  /// model charges sign/verify time and emits extra metrics
  /// (committed_requests, verify_tasks, verify_dropped_stale).
  crypto::CostModel cost_model{};
  /// Modeled verification cores per replica (the `workers` axis; only
  /// meaningful with a non-free cost model).
  std::size_t workers = 1;
  /// Ordering protocol every replica runs (the optional `protocol`
  /// axis). Unset means a legacy grid without the axis: the cell runs
  /// PBFT and emits no commit-latency percentiles, so every legacy
  /// record stays byte-identical to historical output.
  std::optional<replication::Protocol> protocol;
};

/// Runs one seed of `params`: a cluster of n replicas commits `requests`
/// client requests, and the record carries latency, traffic per request
/// and view changes.
runtime::MetricRecord run_bft_scaling(const Params& params,
                                      const runtime::RunContext& ctx) {
  // A non-free cost model is a throughput study, not a liveness one: it
  // parks the liveness timers high, because a single-core replica
  // grinding through a large verify backlog is exactly what the worker
  // sweep measures, and the 1 s timeout (tuned for zero-cost crypto)
  // would view-change it mid-measurement.
  const bool modeled = !params.cost_model.is_free();
  replication::ClusterOptions options;
  options.seed = ctx.seed;
  options.replica.batch_size = params.batch_size;
  options.replica.request_timeout = modeled ? 30.0 : 1.0;
  options.replica.view_change_timeout = modeled ? 45.0 : 1.5;
  options.replica.cost_model = params.cost_model;
  options.replica.crypto_workers = params.workers;
  options.protocol = params.protocol.value_or(replication::Protocol::kPbft);
  replication::Cluster cluster(params.n, options, params.behaviors);
  if (params.offered_load > 0.0) {
    // Open-loop arrivals: request i enters at i / rate. Submission runs
    // as a simulation event so traces record the true arrival time.
    for (int i = 0; i < params.requests; ++i) {
      cluster.simulator().schedule_after(
          static_cast<double>(i) / params.offered_load,
          [&cluster] { (void)cluster.submit(); });
    }
  } else {
    for (int i = 0; i < params.requests; ++i) cluster.submit();
  }
  const bool completed = cluster.run_until_executed(
      static_cast<std::size_t>(params.requests), kDeadline);

  const auto requests = static_cast<std::uint64_t>(params.requests);
  const net::TrafficStats& stats = cluster.network().stats();
  const std::size_t committed = cluster.completed_requests();
  const double span = cluster.last_completion_time();

  using replication::Telemetry;
  runtime::MetricRecord metrics;
  metrics.set("completed", completed ? 1.0 : 0.0);
  metrics.set("latency_ms",
              completed ? cluster.mean_latency() * 1000.0 : -1.0);
  // Historical metrics, deliberately kept in integer division: the CI
  // no-batching invariant cmp's this record byte-for-byte against the
  // unbatched protocol's output. msgs_per_committed_request below is the
  // exact-ratio replacement.
  metrics.set("msgs_per_request",
              static_cast<double>(stats.messages_sent / requests));
  metrics.set("kib_per_request",
              static_cast<double>(stats.bytes_sent / 1024 / requests));
  // Protocol efficiency at request granularity: total traffic amortized
  // over requests some honest replica actually executed (-1 when none
  // committed), and the committed throughput in requests/second.
  metrics.set("msgs_per_committed_request",
              committed > 0 ? static_cast<double>(stats.messages_sent) /
                                  static_cast<double>(committed)
                            : -1.0);
  metrics.set("requests_per_second",
              span > 0.0 ? static_cast<double>(committed) / span : 0.0);
  // PBFT view changes started, HotStuff pacemaker timeouts; the name is
  // kept for catalog stability.
  metrics.set("max_view_changes",
              static_cast<double>(cluster.most(&Telemetry::disruptions)));
  if (params.protocol.has_value()) {
    // Commit-latency distribution (simulated clock, nearest-rank). Only
    // emitted for protocol-comparison cells so legacy records stay
    // byte-identical; deterministic per (instance, seed) like every
    // other simulated quantity, so the golden catalog pins them exactly.
    metrics.set("commit_latency_p50_ms",
                committed > 0 ? cluster.latency_percentile(0.5) * 1000.0
                              : -1.0);
    metrics.set("commit_latency_p99_ms",
                committed > 0 ? cluster.latency_percentile(0.99) * 1000.0
                              : -1.0);
  }
  if (modeled) {
    // Modeled-crypto observability. Gated on the cost model so the
    // crypto=free record stays byte-identical to historical output (the
    // CI inertness cmp); committed_requests is the raw count behind
    // requests_per_second, which the golden catalog pins for every cell
    // of the worker-count sweep.
    metrics.set("committed_requests", static_cast<double>(committed));
    metrics.set("verify_tasks",
                static_cast<double>(cluster.total(&Telemetry::verify_tasks)));
    metrics.set("verify_dropped_stale",
                static_cast<double>(
                    cluster.total(&Telemetry::verify_dropped_stale)));
  }
  return metrics;
}

/// Behaviour mixes selectable on the declarative `mix` axis. The size
/// sweep pairs every n with "honest"; the fault block pins n = 7 (the
/// paper's running example) against each mix.
std::vector<replication::Behavior> behaviors_for_mix(const std::string& mix) {
  using replication::Behavior;
  if (mix == "honest") return {};
  if (mix == "silent_backup") return {Behavior::kHonest, Behavior::kSilent};
  if (mix == "two_silent_backups") {
    return {Behavior::kHonest, Behavior::kSilent, Behavior::kSilent};
  }
  if (mix == "silent_primary") return {Behavior::kSilent};
  if (mix == "equivocating_primary") return {Behavior::kEquivocate};
  throw std::invalid_argument("unknown behaviour mix '" + mix + "'");
}

/// The shared label convention: "n=<n>" plus " <mix>" / " b=<batch>" /
/// " r=<requests>" / " load=<rate>" / " modeled w=<workers>" suffixes only
/// for non-default values — so a bft_batching instance dialed back to the
/// defaults renders *byte-identically* to the equivalent bft_scaling
/// instance (the CI no-batching invariant). `protocol` is unset for
/// legacy grids; when a grid carries the protocol axis the label ends in
/// " proto=<name>" (always last, so CI end-of-line anchors on legacy
/// labels never match a protocol cell).
std::string grid_label(
    std::size_t n, const std::string& mix, std::size_t batch_size,
    int requests, double offered_load, const std::string& crypto,
    std::size_t workers, std::optional<replication::Protocol> protocol) {
  std::string label = "n=" + std::to_string(n);
  if (mix != "honest") label += " " + mix;
  if (batch_size != 1) label += " b=" + std::to_string(batch_size);
  if (requests != 5) label += " r=" + std::to_string(requests);
  if (offered_load != 0.0) {
    label += " load=" + runtime::ParamValue(offered_load).to_string();
  }
  // A non-free cost model always prints its worker count (the modeled
  // lane sweeps it, so every cell must render distinctly); under free
  // crypto a non-default worker count still prints, guarding against
  // duplicate labels if someone sweeps `workers` with crypto=free.
  if (crypto != "free") label += " " + crypto;
  if (workers != 1 || crypto != "free") {
    label += " w=" + std::to_string(workers);
  }
  // The protocol suffix is always last (see above).
  if (protocol.has_value()) {
    label += std::string(" proto=") + replication::protocol_name(*protocol);
  }
  return label;
}

/// Shared factory for the bft_scaling / bft_batching registrations.
runtime::Scenario from_params(const runtime::ParamSet& p,
                              const std::string& mix) {
  const std::size_t n = p.get_size("n");
  const std::size_t batch_size = p.get_size("batch_size");
  const int requests = static_cast<int>(p.get_int("requests"));
  const double offered_load = p.get_double("offered_load");
  // Optional axes: bft_batching's grid (and older saved grids) predate
  // the cost model, so absent axes mean the historical free behaviour.
  const std::string crypto =
      p.has("crypto") ? p.get_string("crypto") : "free";
  const std::size_t workers = p.has("workers") ? p.get_size("workers") : 1;
  // The protocol axis is optional the same way: absent means the
  // historical PBFT lane with no label suffix and no extra metrics.
  const std::optional<replication::Protocol> protocol =
      p.has("protocol") ? std::optional(replication::parse_protocol(
                              p.get_string("protocol")))
                        : std::nullopt;
  const Params params{
      .n = n,
      .behaviors = behaviors_for_mix(mix),
      .requests = requests,
      .batch_size = batch_size,
      .offered_load = offered_load,
      .cost_model = crypto::CostModel::parse(crypto),
      .workers = workers,
      .protocol = protocol};
  FINDEP_REQUIRE(params.n >= 4);
  FINDEP_REQUIRE(params.requests > 0);
  FINDEP_REQUIRE(params.batch_size >= 1);
  FINDEP_REQUIRE(params.offered_load >= 0.0);
  FINDEP_REQUIRE(params.workers >= 1);
  return {"bft_scaling/" + grid_label(n, mix, batch_size, requests,
                                     offered_load, crypto, workers, protocol),
          [params](const runtime::RunContext& ctx) {
            return run_bft_scaling(params, ctx);
          }};
}

const runtime::ScenarioRegistration kBftScaling{{
    .name = "bft_scaling",
    .description = "PBFT scaling: latency / messages / bytes per request "
                   "vs cluster size and fault mix (§IV-B overhead)",
    .grids =
        {
            runtime::ParamGrid{{"n", {4, 7, 10, 16, 25, 40}},
                               {"mix", {"honest"}},
                               {"batch_size", {1}},
                               {"requests", {5}},
                               {"offered_load", {0.0}},
                               {"crypto", {"free"}},
                               {"workers", {1}}},
            runtime::ParamGrid{{"n", {7}},
                               {"mix",
                                {"silent_backup", "two_silent_backups",
                                 "silent_primary", "equivocating_primary"}},
                               {"batch_size", {1}},
                               {"requests", {5}},
                               {"offered_load", {0.0}},
                               {"crypto", {"free"}},
                               {"workers", {1}}},
            // The multicore-replica lane: modeled crypto cost, worker
            // count swept at two committee sizes under a batched request
            // block heavy enough that per-replica verify work (not the
            // network latency floor) dominates the span — that is what
            // makes committed-requests/sec scale near-linearly in the
            // worker count. The golden catalog pins every cell's
            // committed_requests and requests_per_second, and CI asserts
            // the w=8 : w=1 throughput ratio stays >= 3.
            runtime::ParamGrid{{"n", {4, 10}},
                               {"mix", {"honest"}},
                               {"batch_size", {8}},
                               {"requests", {2048}},
                               {"offered_load", {0.0}},
                               {"crypto", {"modeled"}},
                               {"workers", {1, 2, 4, 8}}},
            // The protocol-comparison lane: the same request block
            // through PBFT's all-to-all commit and HotStuff's chained
            // leader-relayed pipeline, swept across committee sizes.
            // msgs_per_committed_request is quadratic in n on the PBFT
            // side and linear on the HotStuff side, so the ordering
            // flips as n grows (asserted in tests, pinned in the golden
            // catalog for every cell).
            runtime::ParamGrid{{"n", {4, 10, 25, 50}},
                               {"mix", {"honest"}},
                               {"batch_size", {4}},
                               {"requests", {64}},
                               {"offered_load", {0.0}},
                               {"crypto", {"free"}},
                               {"workers", {1}},
                               {"protocol", {"pbft", "hotstuff"}}},
        },
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      return from_params(p, p.get_string("mix"));
    },
}};

// The bft_batching family: the throughput side of request batching.
//
// It registers a second declarative slice over the *same* run function
// as bft_scaling — batch size × committee size at a fixed offered block
// of requests — so its instances are named by protocol configuration
// alone ("bft_scaling/n=10 b=8 r=16"), not by family. That is deliberate:
// a bft_batching instance dialed back to the bft_scaling defaults
// (`--set batch_size=1 --set requests=5`) produces the *identical*
// scenario, which is what lets CI `cmp` the two families' JSON to enforce
// the no-batching-equals-today invariant on every push.
//
// The default grid is disjoint from bft_scaling's (batch_size ≥ 2 here,
// exactly 1 there), so the full catalog never contains duplicate
// instances and distributed-sweep merges stay overlap-free.
const runtime::ScenarioRegistration kBftBatching{{
    .name = "bft_batching",
    .description = "PBFT request batching: protocol messages per committed "
                   "request and throughput vs batch size x committee size",
    .grids =
        {
            runtime::ParamGrid{{"batch_size", {2, 4, 8, 16}},
                               {"n", {4, 10, 25}},
                               {"requests", {16}},
                               {"offered_load", {0.0}}},
            // Batching under the HotStuff lane: the pipeline amortizes a
            // whole batch behind one proposal per round, so the
            // msgs-per-committed-request curve falls faster in batch
            // size than PBFT's (whose three phases each pay the
            // quadratic fan-out regardless of batch width).
            runtime::ParamGrid{{"batch_size", {2, 8}},
                               {"n", {4, 10, 25}},
                               {"requests", {16}},
                               {"offered_load", {0.0}},
                               {"protocol", {"hotstuff"}}},
        },
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      return from_params(p, "honest");
    },
}};

}  // namespace
}  // namespace findep::scenarios
