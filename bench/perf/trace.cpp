#include "trace.h"

#include <map>
#include <ostream>
#include <utility>

#include "runtime/metrics.h"

namespace findep::perf {

Tracer::Tracer(std::string workload) : workload_(std::move(workload)) {
  Span root;
  root.id = 1;
  root.name = "workload";
  root.layer = "bench";
  root.start = root.end = Clock::now();
  spans_.push_back(std::move(root));
}

std::uint64_t Tracer::add(Span span) {
  span.id = spans_.size() + 1;
  span.parent = spans_.front().id;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::close_root() { spans_.front().end = Clock::now(); }

double Tracer::self_seconds(const std::string& name) const {
  std::map<std::uint64_t, double> covered;  // parent id -> child seconds
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      covered[span.parent] += seconds_between(span.start, span.end);
    }
  }
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name != name) continue;
    const auto it = covered.find(span.id);
    total += seconds_between(span.start, span.end) -
             (it == covered.end() ? 0.0 : it->second);
  }
  return total;
}

void Tracer::write_jsonl(std::ostream& out) const {
  const Clock::time_point epoch = spans_.front().start;
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
        .count();
  };
  for (const Span& span : spans_) {
    out << "{\"id\": " << span.id << ", \"parent\": " << span.parent
        << ", \"name\": \"" << runtime::json_escape(span.name)
        << "\", \"layer\": \"" << runtime::json_escape(span.layer)
        << "\", \"workload\": \"" << runtime::json_escape(workload_)
        << "\", \"cell\": \"" << runtime::json_escape(span.cell)
        << "\", \"seed\": " << span.seed << ", \"start_ns\": "
        << ns(span.start) << ", \"end_ns\": " << ns(span.end)
        << ", \"sim_events\": " << span.sim_events
        << ", \"cache_hits\": " << span.cache_hits
        << ", \"cache_misses\": " << span.cache_misses << "}\n";
  }
}

}  // namespace findep::perf
