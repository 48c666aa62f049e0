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
// Fault campaigns are the `campaign` family, configured with `--set`
// like any other; one more flag aggregates their result shards:
//
//   findep-bench --family campaign --set fault=crash,collude --json
//   findep-bench --report r1.jsonl r2.jsonl   # outcome rates of shards
//
// `--report` takes the rest of the command line as result shards.
//
// All selected scenarios are swept through ONE global (scenario, seed)
// work queue, so even --seeds 1 fills every core; per-run results are
// bit-identical to --threads 1, and a merged distributed sweep is
// byte-identical to the in-process one (see DESIGN.md for the contract
// and the `micro` family's measured-timing exemption).
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/report.h"
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
  return findep::runtime::run_families_main(argc, argv);
}
