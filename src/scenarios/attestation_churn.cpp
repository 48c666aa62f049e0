// Attestation-churn scenario (§III-B configuration discovery): n replicas
// join a verifier-side registry *over the simulated network* via the
// typed challenge–quote–admit wire protocol, with join times spread over
// a churn window. Meters admission outcomes, traffic and sim-time
// latency, then audits the reconstructed configuration distribution —
// the exact input the diversity core consumes.
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "attest/authority.h"
#include "attest/registry.h"
#include "attest/service.h"
#include "config/sampler.h"
#include "diversity/metrics.h"
#include "net/network.h"
#include "runtime/registry.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace findep::scenarios {
namespace {

struct Params {
  std::size_t replicas = 64;
  /// Joins are spread uniformly over this many simulated seconds.
  double churn_window = 60.0;
  double zipf_exponent = 0.8;
};

runtime::MetricRecord run_attestation_churn(const Params& params,
                                            const runtime::RunContext& ctx) {
  support::Rng rng(ctx.seed);
  crypto::KeyRegistry keys;
  attest::AttestationAuthority authority(keys, rng);
  attest::AttestationRegistry registry(keys, authority.root_key(),
                                       support::mix64(ctx.seed ^ 0x5eed));

  const config::ComponentCatalog catalog = config::standard_catalog();
  config::ConfigurationSampler sampler(
      catalog, config::SamplerOptions{
                   .zipf_exponent = params.zipf_exponent,
                   .attestable_fraction = 1.0});

  std::vector<attest::PlatformModule> platforms;
  platforms.reserve(params.replicas);
  for (std::size_t i = 0; i < params.replicas; ++i) {
    const auto cfg = sampler.sample(rng);
    const auto hw = cfg.component(config::ComponentKind::kTrustedHardware);
    platforms.emplace_back(keys, rng, authority, *hw, cfg);
  }

  sim::Simulator sim;
  net::NetworkOptions net_options;
  net_options.seed = support::mix64(ctx.seed ^ 0x6e6574);
  net::SimNetwork network(sim, net_options);

  const auto service_node = static_cast<net::NodeId>(params.replicas);
  attest::RegistryService service(network, service_node, registry);

  std::vector<std::unique_ptr<attest::EnrollmentClient>> clients;
  clients.reserve(params.replicas);
  for (std::size_t i = 0; i < params.replicas; ++i) {
    clients.push_back(std::make_unique<attest::EnrollmentClient>(
        network, static_cast<net::NodeId>(i), service_node, platforms[i],
        1.0));
    // Churn: replica i joins at a random point of the window.
    const double join_at = rng.uniform(0.0, params.churn_window);
    sim.schedule_at(join_at, [client = clients.back().get()] {
      client->enroll();
    });
  }
  sim.run();

  double latency_sum = 0.0;
  std::size_t decided = 0;
  for (const auto& client : clients) {
    if (client->decided()) {
      latency_sum += client->enrollment_latency();
      ++decided;
    }
  }

  // Auditor path: reconstruct the configuration distribution from the
  // openings and measure its entropy.
  std::unordered_map<crypto::PublicKey, attest::CommitmentOpening> openings;
  for (const auto& platform : platforms) {
    openings[platform.vote_key()] = platform.open_commitment();
  }
  const double entropy = diversity::shannon_entropy(
      registry.reconstruct_distribution(openings));

  const net::TrafficStats& traffic = network.stats();
  runtime::MetricRecord metrics;
  metrics.set("admitted", static_cast<double>(service.admitted()));
  metrics.set("rejected", static_cast<double>(service.rejected()));
  metrics.set("undecided",
              static_cast<double>(params.replicas - decided));
  metrics.set("mean_admission_latency_s",
              decided == 0 ? -1.0
                           : latency_sum / static_cast<double>(decided));
  metrics.set("msgs_per_join",
              static_cast<double>(traffic.messages_sent) /
                  static_cast<double>(params.replicas));
  metrics.set("entropy_bits", entropy);
  return metrics;
}

const runtime::ScenarioRegistration kAttestationChurn{{
    .name = "attestation_churn",
    .description = "§III-B configuration discovery: challenge–quote–admit "
                   "over the simulated network vs registry size",
    .grids = {runtime::ParamGrid{
        {"replicas", {16, 64, 256, 1024}},
        {"churn_window", {60.0}},
        {"zipf", {0.8}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const Params params{.replicas = p.get_size("replicas"),
                          .churn_window = p.get_double("churn_window"),
                          .zipf_exponent = p.get_double("zipf")};
      return {"attestation_churn/n=" + std::to_string(params.replicas),
              [params](const runtime::RunContext& ctx) {
                return run_attestation_churn(params, ctx);
              }};
    },
}};

}  // namespace
}  // namespace findep::scenarios
