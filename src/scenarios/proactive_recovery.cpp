// Proactive-recovery scenario (§III-A's proactive-security pointer):
// one-year exposure of a Lazarus-diverse fleet as a function of the
// rejuvenation period, against patch-lag-only operation (period = 0).
// Replaces the hand-rolled period loop of the old bench; the CVE stream
// and deploy lags derive from the run seed, so a sweep replays many
// independent years.
#include <optional>
#include <string>
#include <vector>

#include "config/catalog.h"
#include "diversity/manager.h"
#include "faults/windows.h"
#include "runtime/registry.h"
#include "support/assert.h"
#include "support/rng.h"
#include "support/table.h"

namespace findep::scenarios {
namespace {

struct Params {
  /// Days between rejuvenations of one replica; 0 = no recovery
  /// (patch-lag-only baseline).
  double period_days = 30.0;
  std::size_t replicas = 24;
  /// Vendors patch quickly, the fleet deploys slowly — the regime where
  /// rejuvenation helps most (it bounds the deploy tail, not zero-days).
  double mean_patch_latency_days = 5.0;
  double mean_deploy_lag_days = 45.0;
  double mean_vulns_per_component = 0.8;
  double horizon_days = 365.0;
};

runtime::MetricRecord run_proactive_recovery(const Params& params,
                                             const runtime::RunContext& ctx) {
  const config::ComponentCatalog catalog = config::standard_catalog();
  faults::SynthesisOptions synth;
  synth.mean_vulns_per_component = params.mean_vulns_per_component;
  synth.horizon_days = params.horizon_days;
  synth.mean_patch_latency_days = params.mean_patch_latency_days;
  synth.seed = ctx.seed;
  const faults::VulnerabilityCatalog vulns =
      faults::synthesize_catalog(catalog, synth);

  std::vector<diversity::ReplicaRecord> population;
  for (const auto& cfg :
       diversity::LazarusStyleAssigner(catalog).assign(params.replicas)) {
    population.push_back(diversity::ReplicaRecord{cfg, 1.0, true});
  }
  faults::PatchLagModel patching;
  patching.mean_deploy_lag_days = params.mean_deploy_lag_days;
  patching.seed = support::mix64(ctx.seed ^ 0x1a95);

  const std::size_t samples =
      static_cast<std::size_t>(params.horizon_days) + 1;
  std::optional<faults::RecoverySchedule> recovery;
  if (params.period_days != 0.0) {
    recovery = faults::RecoverySchedule{.period_days = params.period_days};
  }
  const faults::ExposureTimeline timeline = faults::compute_exposure(
      population, vulns, params.horizon_days, samples, patching, recovery);

  runtime::MetricRecord metrics;
  metrics.set("peak_exposed_pct", timeline.peak_exposed_fraction * 100.0);
  metrics.set("days_over_third",
              timeline.time_above_bft_threshold * params.horizon_days);
  metrics.set("days_over_half",
              timeline.time_above_majority_threshold * params.horizon_days);
  metrics.set("peak_open_vulns",
              static_cast<double>(timeline.peak_open_vulnerabilities));
  return metrics;
}

const runtime::ScenarioRegistration kProactiveRecovery{{
    .name = "proactive_recovery",
    .description = "one-year exposure vs rejuvenation period, "
                   "Lazarus-diverse fleet (§III-A); period=0 is the "
                   "patch-lag-only baseline",
    .grids = {runtime::ParamGrid{
        {"period_days", {0.0, 180.0, 90.0, 30.0, 14.0, 7.0, 2.0}},
        {"replicas", {24}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> runtime::Scenario {
      const Params params{.period_days = p.get_double("period_days"),
                          .replicas = p.get_size("replicas")};
      FINDEP_REQUIRE(params.period_days >= 0.0);
      FINDEP_REQUIRE(params.replicas > 0);
      FINDEP_REQUIRE(params.horizon_days > 0.0);
      const std::string period =
          params.period_days == 0.0
              ? "none"
              : support::Table::format_cell(params.period_days) + "d";
      return {"proactive_recovery/period=" + period,
              [params](const runtime::RunContext& ctx) {
                return run_proactive_recovery(params, ctx);
              }};
    },
}};

}  // namespace
}  // namespace findep::scenarios
