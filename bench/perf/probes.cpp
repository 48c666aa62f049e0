#include "probes.h"

#include <atomic>
#include <functional>
#include <vector>

#include "bft/messages.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "nakamoto/attack.h"
#include "net/envelope.h"
#include "net/network.h"
#include "scenarios/micro.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "trace.h"

namespace findep::perf {

namespace {

/// Keeps every timed loop's result observable so it cannot be elided.
std::atomic<std::uint64_t> g_sink{0};

template <typename Body>
double ns_per_op(std::size_t iterations, Body&& body) {
  std::uint64_t checksum = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < iterations; ++i) checksum ^= body(i);
  const Clock::time_point end = Clock::now();
  g_sink.store(checksum, std::memory_order_relaxed);
  return seconds_between(start, end) * 1e9 / static_cast<double>(iterations);
}

double micro_op(const char* op, std::uint64_t seed) {
  const scenarios::MicroScenario scenario({.op = op});
  return scenario.run(runtime::RunContext{.seed = seed}).get("ns_per_op");
}

bft::Batch make_batch(std::size_t size, std::uint64_t first_id) {
  bft::Batch batch;
  for (std::uint64_t i = 0; i < size; ++i) {
    batch.requests.push_back(bft::Request{
        .id = first_id + i,
        .operation = crypto::Sha256{}.update_u64(first_id + i).finish()});
  }
  return batch;
}

double send_10k(std::uint64_t seed) {
  constexpr net::NodeId kNodes = 10000;
  sim::Simulator sim;
  net::SimNetwork network(sim, net::NetworkOptions{.seed = seed});
  std::uint64_t delivered = 0;
  for (net::NodeId n = 0; n < kNodes; ++n) {
    network.attach(n, [&delivered](const net::Message&) { ++delivered; });
  }
  const net::Envelope envelope(net::Probe{1, "send"});
  return ns_per_op(1 << 16, [&](std::size_t i) {
    const auto from = static_cast<net::NodeId>((i * 7919) % kNodes);
    network.send(from, (from + 1 + i % 97) % kNodes, envelope);
    sim.run();
    return delivered;
  });
}

double sha256_64b(std::uint64_t seed) {
  std::vector<std::uint8_t> data(64, static_cast<std::uint8_t>(seed));
  return ns_per_op(1 << 16, [&](std::size_t i) {
    data[0] = static_cast<std::uint8_t>(i);
    return crypto::sha256(data).prefix64();
  });
}

double hmac(std::uint64_t seed) {
  const crypto::Digest key = crypto::Sha256{}.update_u64(seed).finish();
  crypto::Digest message = crypto::Sha256{}.update_u64(seed + 1).finish();
  return ns_per_op(1 << 15, [&](std::size_t i) {
    message.bytes[0] = static_cast<std::uint8_t>(i);
    return crypto::hmac_sha256(key.bytes, message.bytes).prefix64();
  });
}

double batch_digest_b8(std::uint64_t seed) {
  bft::Batch batch = make_batch(8, seed);
  return ns_per_op(1 << 13, [&](std::size_t i) {
    batch.requests[0].id = i;
    return batch.digest().prefix64();
  });
}

double viewchange_digest_p64(std::uint64_t seed) {
  bft::ViewChange vc{.new_view = 3, .last_executed = 128};
  for (std::uint64_t s = 0; s < 64; ++s) {
    vc.prepared.push_back(bft::PreparedEntry{
        .view = 2, .seq = 129 + s, .batch = make_batch(4, seed + 4 * s)});
  }
  return ns_per_op(1 << 8, [&](std::size_t i) {
    vc.new_view = i;
    return vc.digest().prefix64();
  });
}

double double_spend_trial(std::uint64_t seed) {
  constexpr std::size_t kTrials = 20000;
  support::Rng rng(seed);
  return ns_per_op(1, [&](std::size_t) {
           return static_cast<std::uint64_t>(
               nakamoto::attack_success_monte_carlo(0.3, 6, kTrials, rng) *
               1e9);
         }) /
         static_cast<double>(kTrials);
}

struct Probe {
  const char* metric;
  const char* layer;
  std::function<double(std::uint64_t)> run;
};

std::vector<Probe> probes() {
  const auto micro = [](const char* op) {
    return [op](std::uint64_t seed) { return micro_op(op, seed); };
  };
  return {
      {"sim.schedule_pop_ns", "sim", micro("sim_schedule_pop")},
      {"sim.timer_churn_ns", "sim", micro("sim_timer_churn")},
      {"sim.far_future_insert_ns", "sim", micro("sim_far_future_insert")},
      {"net.broadcast_100_ns", "net", micro("sim_broadcast_100")},
      {"net.send_10k_ns", "net", send_10k},
      {"crypto.sha256_64B_ns", "crypto", sha256_64b},
      {"crypto.sha256_4k_ns", "crypto", micro("sha256_4k")},
      {"crypto.hmac_ns", "crypto", hmac},
      {"crypto.sign_ns", "crypto", micro("sign")},
      {"crypto.verify_ns", "crypto", micro("verify")},
      {"crypto.batch_verify_32_ns", "crypto", micro("batch_verify_32")},
      {"bft.batch_digest_b8_ns", "bft", batch_digest_b8},
      {"bft.viewchange_digest_p64_ns", "bft", viewchange_digest_p64},
      {"diversity.analyze_n100_ns", "diversity", micro("analyzer_n100")},
      {"diversity.entropy_4k_ns", "diversity", micro("entropy_4k")},
      {"config.digest_ns", "config", micro("config_digest")},
      {"nakamoto.double_spend_trial_ns", "nakamoto", double_spend_trial},
  };
}

}  // namespace

std::vector<std::pair<std::string, double>> run_probes(std::uint64_t seed,
                                                       Tracer* tracer) {
  std::vector<std::pair<std::string, double>> out;
  for (const Probe& probe : probes()) {
    Span span{.name = std::string("probe.") + probe.metric,
              .layer = probe.layer,
              .seed = seed,
              .start = Clock::now()};
    out.emplace_back(probe.metric, probe.run(seed));
    span.end = Clock::now();
    if (tracer != nullptr) tracer->add(std::move(span));
  }
  return out;
}

}  // namespace findep::perf
