// The full §V pipeline as one scenario: permissionless participants
// attest their configurations, a diversity-aware committee forms from
// sortition winners under a per-configuration cap, the committee runs
// weighted PBFT, and the worst single configuration fault is injected to
// show the margin held. Replaces the diversity_aware_committee example's
// hand-rolled main; population, keys and sortition all derive from the
// run seed.
#include <stdexcept>
#include <string>
#include <vector>

#include "attest/authority.h"
#include "attest/registry.h"
#include "committee/diversity_aware.h"
#include "committee/sortition.h"
#include "config/sampler.h"
#include "diversity/metrics.h"
#include "faults/injector.h"
#include "replication/cluster.h"
#include "runtime/registry.h"
#include "support/assert.h"
#include "support/table.h"

namespace findep::scenarios {
namespace {

struct Params {
  std::size_t participants = 40;
  double expected_committee = 20.0;
  double per_config_cap = 0.25;
  double zipf_exponent = 1.0;
  int requests = 5;
};

runtime::MetricRecord run_committee_pipeline(const Params& params,
                                             const runtime::RunContext& ctx) {
  // 1. Permissionless population with skewed software choices, all
  //    TEE-capable; everyone attests to a registry.
  crypto::KeyRegistry keys;
  support::Rng rng(ctx.seed);
  const config::ComponentCatalog catalog = config::standard_catalog();
  attest::AttestationAuthority authority(keys, rng);
  attest::AttestationRegistry attestation(keys, authority.root_key());
  config::ConfigurationSampler sampler(
      catalog, config::SamplerOptions{.zipf_exponent = params.zipf_exponent,
                                      .attestable_fraction = 1.0});

  committee::StakeRegistry stake;
  std::vector<crypto::KeyPair> participant_keys;
  std::vector<attest::PlatformModule> platforms;
  platforms.reserve(params.participants);
  for (std::size_t i = 0; i < params.participants; ++i) {
    const auto cfg = sampler.sample(rng);
    const auto hw = cfg.component(config::ComponentKind::kTrustedHardware);
    platforms.emplace_back(keys, rng, authority, *hw, cfg);
    if (!attestation.admit(platforms.back().quote(attestation.challenge()),
                           1.0)) {
      throw std::runtime_error("attestation failed for participant " +
                               std::to_string(i));
    }
    participant_keys.push_back(
        crypto::KeyPair::derive(support::mix64(ctx.seed) + i));
    keys.enroll(participant_keys.back());
    stake.add("participant-" + std::to_string(i), rng.uniform(1.0, 4.0),
              cfg, true, participant_keys.back().public_key());
  }

  // 2. Sortition proposes candidates; the diversity policy forms the
  //    committee under the per-configuration cap.
  committee::Sortition sortition(stake, params.expected_committee);
  const committee::SortitionResult seats =
      sortition.select(/*round=*/1, participant_keys);
  std::vector<committee::ParticipantId> candidates;
  for (const auto& seat : seats.seats) candidates.push_back(seat.participant);
  committee::SelectionPolicy policy;
  policy.per_config_cap = params.per_config_cap;
  const committee::Committee formed =
      committee::form_committee(stake, candidates, policy);
  if (formed.members.size() < 4) {
    throw std::runtime_error("committee too small for BFT (" +
                             std::to_string(formed.members.size()) + ")");
  }

  // 3. Weighted PBFT under the worst single *configuration* fault — the
  //    failure unit the cap provably bounds.
  std::vector<diversity::ReplicaRecord> committee_population;
  std::vector<double> weights;
  for (const auto& member : formed.members) {
    committee_population.push_back(diversity::ReplicaRecord{
        stake.get(member.participant).configuration, member.weight, true});
    weights.push_back(member.weight);
  }
  const diversity::ConfigDistribution committee_dist =
      diversity::DiversityAnalyzer::distribution_of(committee_population);
  const auto worst_config = committee_dist.sorted_by_power().front();
  std::vector<replication::Behavior> behaviors(weights.size(),
                                       replication::Behavior::kHonest);
  double config_fault_power = 0.0;
  for (std::size_t i = 0; i < committee_population.size(); ++i) {
    if (committee_population[i].configuration.digest() == worst_config.id) {
      behaviors[i] = replication::Behavior::kSilent;
      config_fault_power += committee_population[i].power;
    }
  }
  replication::ClusterOptions cluster_options;
  cluster_options.seed = support::mix64(ctx.seed ^ 0xc0117e);
  replication::Cluster cluster(weights, cluster_options, behaviors);
  for (int i = 0; i < params.requests; ++i) cluster.submit();
  const bool live = cluster.run_until_executed(
      static_cast<std::size_t>(params.requests), 120.0);

  // 4. The residual the paper warns about: the worst single *component*
  //    shared across distinct configurations.
  faults::FaultInjector injector(committee_population);
  const faults::CompromiseResult component_fault =
      injector.worst_case_components(1);

  // The §V claim this pipeline exists to demonstrate: under the worst
  // single configuration fault the capped committee stays live and
  // consistent. Failing it is an error (non-zero suite exit, red CI
  // smoke), exactly as the old example's exit code asserted.
  if (!live || !cluster.logs_consistent()) {
    throw std::runtime_error(
        std::string("consensus failed under the worst configuration "
                    "fault: ") +
        (live ? "" : "stalled ") +
        (cluster.logs_consistent() ? "" : "logs diverged"));
  }

  runtime::MetricRecord metrics;
  metrics.set("committee_size", static_cast<double>(formed.members.size()));
  metrics.set("entropy_bits", formed.entropy_bits);
  metrics.set("admitted_power_pct", formed.admitted_fraction * 100.0);
  metrics.set("faults_over_third",
              static_cast<double>(formed.bft.min_faults));
  metrics.set("config_fault_power_pct",
              config_fault_power / formed.total_weight * 100.0);
  metrics.set("consensus_live", live ? 1.0 : 0.0);
  metrics.set("logs_consistent", cluster.logs_consistent() ? 1.0 : 0.0);
  metrics.set("residual_component_pct",
              component_fault.compromised_fraction * 100.0);
  return metrics;
}

const runtime::ScenarioRegistration kCommitteePipeline{{
    .name = "committee_pipeline",
    .description = "§V end to end: attest → sortition → capped committee "
                   "→ weighted PBFT under the worst configuration fault",
    .grids = {runtime::ParamGrid{
        {"cap", {0.25}},
        {"participants", {40}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const Params params{.participants = p.get_size("participants"),
                          .per_config_cap = p.get_double("cap")};
      FINDEP_REQUIRE(params.participants >= 8);
      FINDEP_REQUIRE(params.expected_committee >= 4.0);
      FINDEP_REQUIRE(params.per_config_cap > 0.0 &&
                     params.per_config_cap <= 1.0);
      FINDEP_REQUIRE(params.requests > 0);
      return {"committee_pipeline/cap=" +
                  support::Table::format_cell(params.per_config_cap) +
                  " n=" + std::to_string(params.participants),
              [params](const runtime::RunContext& ctx) {
                return run_committee_pipeline(params, ctx);
              }};
    },
}};

}  // namespace
}  // namespace findep::scenarios
