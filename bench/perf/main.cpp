// findep-perf — host-time benchmark of the deterministic scenario catalog.
//
//   findep-perf --list
//   findep-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--golden FILE] [--trace-out FILE]
//
// One process runs one workload (workloads.h) on one thread, closed
// loop: a single caller runs the workload's cells back to back through
// the runtime's task-pool seam. A *pass* runs every cell once and renders
// the records as the suite's JSON; pass p runs at seed
// derive_seed(--seed, p), so passes sweep fresh seeds exactly as
// `findep-bench --seeds P` would (a traced run runs each seed twice).
// Passes repeat while the next one is expected to end within --seconds
// (two at least), and every timing is a median over passes.
//
// Every run is checked: it must not throw, must keep the workload's
// seed-independent invariants, and must match the golden record where
// the golden covers it — passes 0 and 1 at --seed 1, and the seed-free
// closed-form families at every seed.
//
// The last line on stdout is the result:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Progress and failures go to stderr.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "diversity/analyzer.h"
#include "golden.h"
#include "probes.h"
#include "runtime/metrics.h"
#include "runtime/sweep.h"
#include "runtime/task.h"
#include "sim/simulator.h"
#include "trace.h"
#include "workloads.h"

namespace findep::perf {

namespace {

/// Set-up repetitions per batch.
constexpr std::size_t kSetupRepetitions = 25;

/// Fewest passes in a run, however long a pass takes (a faults pass
/// takes 5 to 13 s).
constexpr std::size_t kMinPasses = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool list = false;
  std::string golden;
  std::string trace_out;
};

int usage(const std::string& message) {
  std::cerr << "error: " << message
            << "\nusage: findep-perf --list\n"
               "       findep-perf --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--golden FILE] [--trace-out FILE]\n";
  return 2;
}

/// Returns the usage error, or nullopt when `options` is complete.
std::optional<std::string> parse_options(int argc, char** argv,
                                         Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      options.list = true;
      continue;
    }
    if (i + 1 >= argc) return flag + " expects a value";
    const std::string value = argv[++i];
    std::size_t used = value.size();
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value, &used);
        if (!(options.seconds > 0.0)) return "--seconds must be positive";
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return "--trace expects 0 or 1";
        options.trace = value == "1";
      } else if (flag == "--golden") {
        options.golden = value;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        return "unknown flag " + flag;
      }
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != value.size()) return "malformed value for " + flag;
  }
  if (!options.list && find_workload(options.workload) == nullptr) {
    return "--workload must name a workload (see --list)";
  }
  return std::nullopt;
}

/// Where the rendered JSON goes: formats everything, keeps only the
/// byte count.
class CountingBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    ++bytes_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

/// Starts a new peak-RSS window: hands the heap's free pages back to the
/// kernel, so memory an earlier pass freed does not count, then resets
/// the process's high-water mark (VmHWM) to its current RSS.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  if (!clear_refs) {
    throw std::runtime_error("cannot reset the peak RSS through "
                             "/proc/self/clear_refs");
  }
}

/// The process's peak RSS (VmHWM) since the last reset_peak_rss(), in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // VmHWM is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Pass {
  double wall_s = 0.0;
  /// Peak RSS while the pass ran, in MiB.
  double peak_rss_mb = 0.0;
  std::uint64_t sim_events = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Bytes of task-wire records and of rendered JSON.
  std::uint64_t wire_bytes = 0;
  std::uint64_t render_bytes = 0;
  /// The rendered sink: one entry per cell, in cell order.
  runtime::MetricsSink sink;
  /// Host seconds and simulator events of each cell's run, by cell.
  std::vector<double> run_s;
  std::vector<std::uint64_t> run_events;
};

/// Both ends of the task-pool seam for one pass. The pool runs on the
/// calling thread (threads = 1), so a task's hand-out in next() and its
/// record in collect() bracket exactly one Scenario::run.
class PassRunner final : public runtime::TaskSource,
                         public runtime::ResultCollector {
 public:
  PassRunner(const std::vector<Cell>& cells, std::uint64_t seed,
             std::size_t run_index, Tracer* tracer, Pass& pass,
             std::vector<runtime::RunRecord>& records)
      : cells_(cells),
        seed_(runtime::derive_seed(seed, run_index)),
        run_index_(run_index),
        tracer_(tracer),
        pass_(pass),
        records_(records) {
    records_.assign(cells.size(), {});
    pass_.run_s.assign(cells.size(), 0.0);
    pass_.run_events.assign(cells.size(), 0);
  }

  bool next(runtime::SweepTask& task) override {
    if (next_cell_ == cells_.size()) return false;
    task.scenario = cells_[next_cell_].scenario;
    task.seed = seed_;
    task.run_index = run_index_;
    task.slot = next_cell_++;
    started_ = Clock::now();
    return true;
  }

  void collect(const runtime::SweepTask& task,
               runtime::RunRecord record) override {
    const Clock::time_point end = Clock::now();
    const std::uint64_t events = sim::process_events_executed();
    pass_.run_s[task.slot] = seconds_between(started_, end);
    pass_.run_events[task.slot] = events - events_;
    events_ = events;
    if (tracer_ != nullptr) {
      const auto cache = diversity::DiversityAnalyzer::cache_stats();
      tracer_->add(Span{.name = "runtime.cell",
                        .layer = "runtime",
                        .cell = cells_[task.slot].name,
                        .seed = task.seed,
                        .start = started_,
                        .end = end,
                        .sim_events = pass_.run_events[task.slot],
                        .cache_hits = cache.hits - cache_.hits,
                        .cache_misses = cache.misses - cache_.misses});
      cache_ = cache;
    }
    // The record goes out on the task wire, as a sharded worker's would.
    const Clock::time_point wire_start = Clock::now();
    const std::string wire = runtime::to_json(record);
    if (tracer_ != nullptr) {
      tracer_->add(Span{.name = "runtime.wire",
                        .layer = "runtime",
                        .cell = cells_[task.slot].name,
                        .seed = task.seed,
                        .start = wire_start,
                        .end = Clock::now()});
    }
    pass_.wire_bytes += wire.size();
    records_[task.slot] = std::move(record);
  }

 private:
  const std::vector<Cell>& cells_;
  std::uint64_t seed_;
  std::size_t run_index_;
  Tracer* tracer_;
  Pass& pass_;
  std::vector<runtime::RunRecord>& records_;
  std::size_t next_cell_ = 0;
  Clock::time_point started_;
  std::uint64_t events_ = sim::process_events_executed();
  diversity::DiversityAnalyzer::CacheStats cache_ =
      diversity::DiversityAnalyzer::cache_stats();
};

/// Runs pass `index`: every cell once at derive_seed(seed, index), then
/// the rendering.
Pass run_pass(const std::vector<Cell>& cells, std::uint64_t seed,
              std::size_t index, Tracer* tracer) {
  // Every pass starts cold, like a fresh process: an empty analyzer cache
  // and no freed heap kept from earlier passes.
  diversity::DiversityAnalyzer::reset_cache();
  reset_peak_rss();
  Pass pass;
  std::vector<runtime::RunRecord> records;
  const std::uint64_t events_before = sim::process_events_executed();
  const Clock::time_point start = Clock::now();
  {
    PassRunner runner(cells, seed, index, tracer, pass, records);
    runtime::run_task_pool(runner, runner, 1);
  }
  const Clock::time_point render_start = Clock::now();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    pass.sink.add(cells[c].name, cells[c].scenario->family(),
                  {std::move(records[c])});
  }
  CountingBuf rendered;
  std::ostream out(&rendered);
  pass.sink.print_json(out);
  const Clock::time_point end = Clock::now();
  pass.peak_rss_mb = peak_rss_mb();
  pass.render_bytes = rendered.bytes();
  if (tracer != nullptr) {
    tracer->add(Span{.name = "runtime.render",
                     .layer = "runtime",
                     .start = render_start,
                     .end = end});
  }
  pass.wall_s = seconds_between(start, end);
  pass.sim_events = sim::process_events_executed() - events_before;
  const auto cache = diversity::DiversityAnalyzer::cache_stats();
  pass.cache_hits = cache.hits;
  pass.cache_misses = cache.misses;
  return pass;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Host time is reported per *unit of work* — one simulator event, or one
// run for a cell that simulates nothing — because the work a pass does
// depends on its seed: a faults pass takes 5 to 13 s as a seed makes 2 to
// 7 campaign cells stall until their deadline.

double units_of(const Pass& pass, std::size_t cell) {
  return static_cast<double>(
      std::max<std::uint64_t>(pass.run_events[cell], 1));
}

/// Geometric mean over the cell groups (families, campaign split by fault
/// kind) of each group's run time per unit of work, in nanoseconds: every
/// group weighs the same, however long its runs take. A pass's
/// time-weighted time per unit is not a metric: on propagation the
/// memory-bound 10k-node gossip cell is ~80% of it, and on a shared 4-core
/// VM that cell's time per event drifts ~30% over minutes as the host's
/// load changes, past any bound the metric could have.
double family_ns_per_unit(const Pass& pass, const std::vector<Cell>& cells) {
  std::map<std::string, std::pair<double, double>> groups;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    auto& [seconds, units] = groups[cells[c].group];
    seconds += pass.run_s[c];
    units += units_of(pass, c);
  }
  double log_sum = 0.0;
  for (const auto& [group, totals] : groups) {
    log_sum += std::log(totals.first * 1e9 / totals.second);
  }
  return std::exp(log_sum / static_cast<double>(groups.size()));
}

/// Counts failed runs and names each one on stderr.
class Failures {
 public:
  void add(const std::string& scenario, std::uint64_t seed,
           const std::string& what) {
    ++count_;
    std::cerr << "FAILED " << scenario << " seed " << seed << ": " << what
              << '\n';
  }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

 private:
  std::size_t count_ = 0;
};

/// Checks every record of `pass` against the invariants and the golden.
void check_pass(const Pass& pass, const std::vector<Cell>& cells,
                const Golden* golden, Failures& failures) {
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const runtime::RunRecord& record = pass.sink.entries()[c].records.front();
    std::string problem = record.ok()
                              ? check_invariants(cells[c], record.metrics)
                              : "threw: " + record.error;
    const runtime::MetricRecord* expected = nullptr;
    if (golden != nullptr) {
      expected = seed_free(cells[c]) ? golden->find_any(cells[c].name)
                                     : golden->find(cells[c].name,
                                                    record.seed);
    }
    if (problem.empty() && expected != nullptr) {
      problem = Golden::diff(*expected, record.metrics);
      if (!problem.empty()) problem = "differs from golden: " + problem;
    }
    if (!problem.empty()) failures.add(cells[c].name, record.seed, problem);
  }
}

/// Sum over the records of `pass` of metric `name` where present.
double sum_metric(const Pass& pass, const std::string& name,
                  const std::string& family = "") {
  double total = 0.0;
  for (const auto& entry : pass.sink.entries()) {
    if (!family.empty() && entry.family != family) continue;
    for (const runtime::RunRecord& record : entry.records) {
      if (record.ok() && record.metrics.has(name)) {
        total += record.metrics.get(name);
      }
    }
  }
  return total;
}

double mean_metric(const Pass& pass, const std::string& name) {
  double total = 0.0;
  std::size_t count = 0;
  for (const auto& entry : pass.sink.entries()) {
    for (const runtime::RunRecord& record : entry.records) {
      if (record.ok() && record.metrics.has(name)) {
        total += record.metrics.get(name);
        ++count;
      }
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << '"' << metrics[i].name
              << "\": {\"value\": " << runtime::format_exact(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void list_workloads() {
  std::size_t total = 0;
  for (const Workload& workload : kWorkloads) {
    const std::size_t cells = instantiate_workload(workload).size();
    total += cells;
    std::cout << workload.name << ": " << cells << " cells\n  "
              << workload.why << '\n';
  }
  std::cout << total << " cells in all\n";
}

void warn_unassigned() {
  for (const std::string& family : unassigned_families()) {
    std::cerr << "warning: catalog family '" << family
              << "' has cells no workload runs\n";
  }
}

/// Per-group breakdown of a traced run, on stderr: self time per traced
/// pass and host nanoseconds per simulated event.
void print_breakdown(const Tracer& tracer, const std::vector<Cell>& cells,
                     std::size_t traced_passes) {
  std::map<std::string, std::string> group_of;
  for (const Cell& cell : cells) group_of[cell.name] = cell.group;
  std::map<std::string, std::pair<double, std::uint64_t>> groups;
  for (const Span& span : tracer.spans()) {
    if (span.name != "runtime.cell") continue;
    auto& [seconds, events] = groups[group_of[span.cell]];
    seconds += seconds_between(span.start, span.end);
    events += span.sim_events;
  }
  for (const auto& [group, totals] : groups) {
    std::cerr << "cell_s." << group << " = "
              << totals.first / static_cast<double>(traced_passes);
    if (totals.second != 0) {
      std::cerr << "  sim.ns_per_event = "
                << totals.first * 1e9 / static_cast<double>(totals.second);
    }
    std::cerr << '\n';
  }
}

int run(const Options& options) {
  const Workload& workload = *find_workload(options.workload);
  std::optional<Tracer> tracer;
  if (options.trace) tracer.emplace(workload.name);
  Tracer* const trace = tracer ? &*tracer : nullptr;

  // Set-up: registry lookup, grid expansion and factories. Repeated in a
  // batch before the first pass and after every pass, so its median
  // samples the host across the whole run, not only as the process starts.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    std::vector<Cell> cells;
    for (std::size_t rep = 0; rep < kSetupRepetitions; ++rep) {
      const Clock::time_point start = Clock::now();
      std::vector<Cell> fresh = instantiate_workload(workload);
      const Clock::time_point end = Clock::now();
      cells = std::move(fresh);
      setup_s.push_back(seconds_between(start, end));
      if (trace != nullptr) {
        trace->add(Span{.name = "runtime.instantiate",
                        .layer = "runtime",
                        .start = start,
                        .end = end});
      }
    }
    return cells;
  };
  const std::vector<Cell> cells = set_up();
  warn_unassigned();

  // The measured passes. A traced run runs every seed twice, plain and
  // then traced, so the tracing overhead compares identical work. Passes
  // continue, at least kMinPasses of them, while the next one is
  // expected (at the mean pass time so far) to end within --seconds.
  std::vector<Pass> passes;
  const std::size_t passes_per_seed = options.trace ? 2 : 1;
  const Clock::time_point measure_start = Clock::now();
  const auto another_pass = [&] {
    const std::size_t done = passes.size();
    if (done < kMinPasses || done % passes_per_seed != 0) return true;
    const double elapsed = seconds_between(measure_start, Clock::now());
    return elapsed / static_cast<double>(done) *
               static_cast<double>(done + 1) <=
           options.seconds;
  };
  while (another_pass()) {
    const bool traced = options.trace && passes.size() % 2 == 1;
    passes.push_back(run_pass(cells, options.seed,
                              passes.size() / passes_per_seed,
                              traced ? trace : nullptr));
    set_up();
  }

  std::optional<Golden> golden;
  if (!options.golden.empty()) golden = Golden::load(options.golden);
  Failures failures;
  for (const Pass& pass : passes) {
    check_pass(pass, cells, golden ? &*golden : nullptr, failures);
  }
  const std::size_t attempted = passes.size() * cells.size();

  std::vector<double> wall_s;
  std::vector<double> sim_events;
  for (const Pass& pass : passes) {
    wall_s.push_back(pass.wall_s);
    sim_events.push_back(static_cast<double>(pass.sim_events));
  }
  std::cerr << workload.name << ": " << passes.size() << " passes of "
            << cells.size() << " runs; median pass " << median(wall_s)
            << " s, " << median(sim_events) << " sim events\n";

  std::vector<Metric> metrics;
  if (!options.trace) {
    // The peak RSS is a mean, not a median: it depends only on the pass's
    // seed, and on propagation it takes a few discrete sizes (the gossip
    // run's length), between which a median would jump.
    std::vector<double> by_family;
    double rss_mb = 0.0;
    for (const Pass& pass : passes) {
      by_family.push_back(family_ns_per_unit(pass, cells));
      rss_mb += pass.peak_rss_mb / static_cast<double>(passes.size());
    }
    metrics = {
        {"family_ns_per_unit", median(by_family), "ns"},
        {"peak_rss_mb", rss_mb, "MiB"},
        {"setup_s", median(setup_s), "s"},
    };
  } else {
    // Counts come from pass 0, which every run at this seed executes.
    const Pass& pass = passes.front();
    const std::size_t traced_passes = passes.size() / 2;
    const auto per_pass = [&](const char* name) {
      return trace->self_seconds(name) / static_cast<double>(traced_passes);
    };
    std::vector<double> slowdown;  // traced over plain, per seed
    for (std::size_t p = 0; p < traced_passes; ++p) {
      slowdown.push_back(passes[2 * p + 1].wall_s / passes[2 * p].wall_s);
    }
    const double verify_tasks = sum_metric(pass, "verify_tasks");
    const double dropped = sum_metric(pass, "verify_dropped_stale");
    metrics = {
        {"runtime.instantiate_s",
         trace->self_seconds("runtime.instantiate") /
             static_cast<double>(setup_s.size()),
         "s"},
        {"runtime.cell_s", per_pass("runtime.cell"), "s"},
        {"runtime.wire_s", per_pass("runtime.wire"), "s"},
        {"runtime.render_s", per_pass("runtime.render"), "s"},
        {"runtime.wire_bytes", static_cast<double>(pass.wire_bytes), "bytes"},
        {"runtime.render_bytes", static_cast<double>(pass.render_bytes),
         "bytes"},
        {"sim.events", static_cast<double>(pass.sim_events), "count"},
        {"net.messages_delivered", sum_metric(pass, "messages_delivered"),
         "count"},
        {"replication.view_changes", sum_metric(pass, "max_view_changes"),
         "count"},
        {"replication.committed_requests",
         sum_metric(pass, "committed_requests"), "count"},
        {"replication.msgs_per_committed_request",
         mean_metric(pass, "msgs_per_committed_request"), "msgs/request"},
        {"durability.state_transfers", sum_metric(pass, "state_transfers"),
         "count"},
        {"durability.state_transfer_bytes",
         sum_metric(pass, "state_transfer_bytes"), "bytes"},
        {"campaign.recovered", sum_metric(pass, "recovered", "campaign"),
         "count"},
        {"campaign.liveness_stalled",
         sum_metric(pass, "liveness_stalled", "campaign"), "count"},
        {"campaign.safety_violated",
         sum_metric(pass, "safety_violated", "campaign"), "count"},
        {"workers.verify_tasks", verify_tasks, "count"},
        {"workers.verify_dropped_stale", dropped, "count"},
        {"workers.stale_drop_frac",
         verify_tasks > 0.0 ? dropped / verify_tasks : 0.0, "fraction"},
        {"diversity.analyzer_cache_hits",
         static_cast<double>(pass.cache_hits), "count"},
        {"diversity.analyzer_cache_misses",
         static_cast<double>(pass.cache_misses), "count"},
        {"trace.overhead_frac", median(slowdown) - 1.0,
         "fraction"},
    };
    for (const auto& [name, ns] : run_probes(options.seed, trace)) {
      metrics.push_back({name, ns, "ns"});
    }
    trace->close_root();
    print_breakdown(*trace, cells, traced_passes);
    if (!options.trace_out.empty()) {
      std::ofstream out(options.trace_out);
      trace->write_jsonl(out);
      if (!out) {
        std::cerr << "error: cannot write " << options.trace_out << '\n';
        return 1;
      }
    }
  }
  print_result(failures.count() == 0, attempted, failures.count(), metrics);
  return 0;
}

}  // namespace

}  // namespace findep::perf

int main(int argc, char** argv) {
  findep::perf::Options options;
  if (const auto error = findep::perf::parse_options(argc, argv, options)) {
    return findep::perf::usage(*error);
  }
  try {
    if (options.list) {
      findep::perf::list_workloads();
      findep::perf::warn_unassigned();
      return 0;
    }
    return findep::perf::run(options);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
