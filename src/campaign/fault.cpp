#include "campaign/fault.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "faults/adversary.h"
#include "faults/injector.h"
#include "support/assert.h"

namespace findep::campaign {

const std::vector<std::pair<std::string, FaultKind>>& fault_kinds() {
  static const std::vector<std::pair<std::string, FaultKind>> kinds = {
      {"crash", FaultKind::kCrash},
      {"crash_restart", FaultKind::kCrashRestart},
      {"partition", FaultKind::kPartition},
      {"corrupt", FaultKind::kCorrupt},
      {"collude", FaultKind::kCollude},
      {"censor", FaultKind::kCensor},
  };
  return kinds;
}

const std::string& to_string(FaultKind kind) {
  for (const auto& [name, k] : fault_kinds()) {
    if (k == kind) return name;
  }
  throw std::invalid_argument("unnamed fault kind");
}

FaultKind parse_fault_kind(const std::string& name) {
  for (const auto& [known, kind] : fault_kinds()) {
    if (known == name) return kind;
  }
  std::string all;
  for (const auto& [known, kind] : fault_kinds()) {
    if (!all.empty()) all += ", ";
    all += known;
  }
  throw std::invalid_argument("unknown fault kind '" + name +
                              "' (known: " + all + ")");
}

bool is_byzantine(FaultKind kind) noexcept {
  return kind == FaultKind::kCollude || kind == FaultKind::kCensor;
}

FaultPlan plan_fault(FaultKind kind, double rate,
                     const std::vector<diversity::ReplicaRecord>& fleet,
                     const config::ComponentCatalog& catalog,
                     support::Rng& rng) {
  FINDEP_REQUIRE(rate > 0.0 && rate <= 1.0);
  const faults::FaultInjector injector(fleet);

  // Adversarial kinds exploit the worst-case component (the attacker
  // maximizes blast radius); environmental kinds fault a uniformly random
  // one. Both draws use the injector's first-appearance component order,
  // which is deterministic in fleet order.
  faults::CompromiseResult exposed;
  config::ComponentId component;
  if (is_byzantine(kind)) {
    exposed = faults::VulnerabilityAdversary{1}.attack(injector);
    FINDEP_ASSERT(!exposed.compromised.empty());
    component = exposed.components.front();
  } else {
    const auto& present = injector.present_components();
    FINDEP_ASSERT(!present.empty());
    component = present[rng.below(present.size())];
    exposed = injector.inject_components({&component, 1});
    FINDEP_ASSERT(!exposed.compromised.empty());
  }

  FaultPlan plan;
  plan.kind = kind;
  plan.rate = rate;
  plan.component = component;
  plan.component_kind = catalog.get(component).kind;
  plan.exposed_fraction = exposed.compromised_fraction;

  // The rate is the exploitability: each exposed replica succumbs
  // independently. Corruption keeps every exposed replica as a faulted
  // link endpoint and spends the rate per message instead.
  double victim_power = 0.0;
  for (const std::size_t r : exposed.compromised) {
    if (kind != FaultKind::kCorrupt && !rng.chance(rate)) continue;
    plan.victims.push_back(r);
    victim_power += fleet[r].power;
  }
  plan.victim_fraction = victim_power / injector.total_power();
  return plan;
}

std::vector<replication::Behavior> planned_behaviors(const FaultPlan& plan,
                                                     std::size_t n) {
  using replication::Behavior;
  std::vector<Behavior> behaviors(n, Behavior::kHonest);
  if (!is_byzantine(plan.kind)) return behaviors;
  const Behavior turned = plan.kind == FaultKind::kCollude
                              ? Behavior::kCollude
                              : Behavior::kCensor;
  for (const std::size_t r : plan.victims) {
    FINDEP_ASSERT(r < n);
    behaviors[r] = turned;
  }
  return behaviors;
}

void schedule_fault(const FaultPlan& plan, replication::Cluster& cluster,
                    const std::shared_ptr<support::Rng>& link_rng) {
  if (is_byzantine(plan.kind) || plan.victims.empty()) return;
  sim::Simulator& sim = cluster.simulator();
  net::SimNetwork& network = cluster.network();
  const double heal_at = plan.inject_at + plan.heal_after;

  switch (plan.kind) {
    case FaultKind::kCrash:
    case FaultKind::kCrashRestart: {
      sim.schedule_at(plan.inject_at, [&network, victims = plan.victims] {
        for (const std::size_t r : victims) {
          network.set_node_down(static_cast<net::NodeId>(r), true);
        }
      });
      if (plan.kind == FaultKind::kCrashRestart) {
        sim.schedule_at(heal_at, [&network, victims = plan.victims] {
          for (const std::size_t r : victims) {
            network.set_node_down(static_cast<net::NodeId>(r), false);
          }
        });
      }
      break;
    }
    case FaultKind::kPartition: {
      // All victims land in one non-zero group: they can still talk to
      // each other (a correlated netsplit along the shared component),
      // just not to the healthy remainder.
      sim.schedule_at(plan.inject_at, [&network, victims = plan.victims] {
        for (const std::size_t r : victims) {
          network.set_partition_group(static_cast<net::NodeId>(r), 1);
        }
      });
      sim.schedule_at(heal_at,
                      [&network] { network.heal_partitions(); });
      break;
    }
    case FaultKind::kCorrupt: {
      sim.schedule_at(plan.inject_at, [&network, link_rng,
                                       rate = plan.rate,
                                       victims = plan.victims] {
        // Membership is checked against a by-value copy so the policy
        // owns everything it touches; the rng draw happens in
        // deterministic event order (send time).
        std::unordered_set<net::NodeId> faulted;
        for (const std::size_t r : victims) {
          faulted.insert(static_cast<net::NodeId>(r));
        }
        network.set_corrupt_policy(
            [link_rng, rate, faulted = std::move(faulted)](
                net::NodeId from, net::NodeId to) {
              if (!faulted.contains(from) && !faulted.contains(to)) {
                return false;
              }
              return link_rng->chance(rate);
            });
      });
      sim.schedule_at(heal_at,
                      [&network] { network.set_corrupt_policy(nullptr); });
      break;
    }
    case FaultKind::kCollude:
    case FaultKind::kCensor:
      break;  // handled at construction via planned_behaviors
  }
}

}  // namespace findep::campaign
