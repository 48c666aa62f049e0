// findep-bench — the experiment CLI over the scenario registry.
//
// Every scenario family in the repository registers itself with the
// process-wide ScenarioRegistry; this binary can list, filter,
// re-parameterize and run any of them (README "Reproducing the paper"
// maps each paper result to its command line):
//
//   findep-bench --list                       # families, grids, sizes
//   findep-bench --family bft_scaling         # one family, default grid
//   findep-bench --family fig1_entropy --set x=1,10,100,1000
//   findep-bench --only "alpha=2" --seeds 16 --json
//   findep-bench --seeds 1                    # whole catalog, one seed
//
// The same catalog shards across processes (or machines) through the
// task wire format — coordinator, workers, merge:
//
//   findep-bench --emit-tasks | findep-bench --worker |
//     findep-bench --merge - --json        # ≡ findep-bench --json
//   findep-bench --emit-tasks > tasks.jsonl && split -n l/3 tasks.jsonl s.
//   findep-bench --worker < s.aa > r1.jsonl   # ... one per shard/host
//   findep-bench --merge r1.jsonl r2.jsonl r3.jsonl --csv --out sweep.csv
//
// Fault campaigns add two flags to the suite's:
//
//   findep-bench --spec nightly.spec --json   # campaign spec file
//   findep-bench --report r1.jsonl r2.jsonl   # outcome rates of shards
//
// `--spec FILE` lowers to flags (campaign::spec_arguments) placed before
// the command line's own, so a later `--set` or `--seeds` wins.
// `--report` takes the rest of the command line as result shards.
//
// All selected scenarios are swept through ONE global (scenario, seed)
// work queue, so even --seeds 1 fills every core; per-run results are
// bit-identical to --threads 1, and a merged distributed sweep is
// byte-identical to the in-process one (see DESIGN.md for the contract
// and the `micro` family's measured-timing exemption).
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/report.h"
#include "campaign/spec.h"
#include "runtime/registry.h"

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--report") continue;
    const std::vector<std::string> paths(argv + i + 1, argv + argc);
    if (paths.empty()) {
      std::cerr << "usage: findep-bench --report RESULTS.jsonl...\n";
      return 2;
    }
    return findep::campaign::report_main(paths, std::cout, std::cerr);
  }

  std::vector<std::string> spec_flags;
  std::vector<const char*> user_flags;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--spec") {
      user_flags.push_back(argv[i]);
      continue;
    }
    if (++i >= argc) {
      std::cerr << "error: --spec expects a file argument\n";
      return 2;
    }
    try {
      spec_flags = findep::campaign::spec_arguments(
          findep::campaign::load_campaign_spec(argv[i]));
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 2;
    }
  }

  std::vector<const char*> forwarded = {argv[0]};
  for (const std::string& flag : spec_flags) forwarded.push_back(flag.c_str());
  forwarded.insert(forwarded.end(), user_flags.begin(), user_flags.end());
  return findep::runtime::run_families_main(
      static_cast<int>(forwarded.size()), forwarded.data());
}
