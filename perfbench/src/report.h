// Turns a run's raw samples and counters into the named metrics, and
// prints them.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "probes.h"
#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;  // nullopt = flagged (too few samples)
  std::size_t samples = 0;      // for percentiles: the sample count
};

/// End-to-end metrics of an untraced run, in reporting order.
std::vector<Metric> end_to_end(const RunData& d);

/// Span-derived numbers from a traced run.
struct TraceFacts {
  std::map<std::string, double> self_us;    // span name -> summed self time
  std::map<std::string, double> ka_cpu_us;  // ka.* phase -> summed cpu_us args
  double flush_round_us = 0;
  std::size_t flush_rounds = 0;
  std::vector<double> delivery_latency_us;  // msg.delivered instants
  std::size_t events = 0;
};
TraceFacts analyze_trace(const std::vector<ss::obs::TraceEvent>& events);

/// Per-layer metrics of a traced run. `base` is the untraced pass of the
/// same workload (for the tracing overhead).
std::vector<Metric> per_layer(const RunData& traced, const RunData& base,
                              const CryptoProbe& crypto, const TraceFacts& trace,
                              const std::string& workload);

/// One line per metric, human-readable.
void print_metrics(const char* title, const std::vector<Metric>& ms);

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..},
/// "flagged":[..],"failures":{..}}.
std::string result_json(const RunData& d, const std::vector<Metric>& ms);

}  // namespace perfbench
