// ss_perfbench: end-to-end benchmark of the Secure Spread stack.
//
//   ss_perfbench --workload <name> --seed N --seconds S --trace 0|1 [--out DIR]
//   ss_perfbench --selftest
//
// Prints every metric by name with its unit, then, as the last line, one
// JSON object with the run's correctness and metrics. --trace 0 reports the
// end-to-end metrics of an untraced run. --trace 1 runs the workload twice,
// untraced and then with an obs::TraceSink and obs::RegistryScope
// installed, reports the per-layer metrics of the traced pass, and writes
// its chrome trace (trace.json) and registry snapshot (metrics.txt) to DIR.
// perfbench/run.py builds this binary and wraps it; see perfbench/NOTES.md.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "probes.h"
#include "report.h"
#include "workload.h"

namespace perfbench {
int run_selftest();
}

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out = ".";
  bool selftest = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: ss_perfbench --workload <mcast_small|mcast_large|churn|gate_fanout>\n"
               "                    --seed N --seconds S --trace 0|1 [--out DIR]\n"
               "       ss_perfbench --selftest\n");
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--out") {
      a.out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return a.selftest || (!a.workload.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1));
}

bool run_workload(const std::string& w, const RunOptions& opt, RunData& out) {
  if (w == "mcast_small") {
    run_mcast(opt, 64, 6000, out);
  } else if (w == "mcast_large") {
    run_mcast(opt, 8192, 1200, out);
  } else if (w == "churn") {
    run_churn(opt, out);
  } else if (w == "gate_fanout") {
    run_gate(opt, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) return usage();
  if (a.selftest) return run_selftest();

  const RunOptions opt{a.seed, a.seconds};
  RunData base;
  try {
    if (!run_workload(a.workload, opt, base)) return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ss_perfbench: %s\n", e.what());
    return 1;
  }
  const std::vector<Metric> e2e = end_to_end(base);
  print_metrics(("workload " + a.workload + ", untraced").c_str(), e2e);
  if (a.trace == 0) {
    std::printf("%s\n", result_json(base, e2e).c_str());
    return 0;
  }

  const CryptoProbe crypto = probe_crypto(a.seed);
  RunData traced;
  ss::obs::MetricsRegistry registry;
  ss::obs::TraceSink sink;
  const auto t0 = std::chrono::steady_clock::now();
  sink.set_clock([t0] {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                          std::chrono::steady_clock::now() - t0)
                                          .count());
  });
  try {
    const ss::obs::RegistryScope registry_scope(registry);
    const ss::obs::TraceScope trace_scope(sink);
    run_workload(a.workload, opt, traced);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ss_perfbench: traced pass: %s\n", e.what());
    return 1;
  }
  const std::string trace_path = a.out + "/trace.json";
  if (!sink.write_chrome(trace_path)) {
    std::fprintf(stderr, "ss_perfbench: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::ofstream(a.out + "/metrics.txt") << registry.render_text();

  const TraceFacts facts = analyze_trace(sink.events());
  std::vector<Metric> layers = per_layer(traced, base, crypto, facts, a.workload);
  print_metrics(("workload " + a.workload + ", traced (per layer)").c_str(), layers);
  print_metrics(("workload " + a.workload + ", traced (end to end, not for comparison)").c_str(),
                end_to_end(traced));
  std::printf("trace: %zu events (%llu dropped) -> %s\n", sink.size(),
              static_cast<unsigned long long>(sink.dropped()), trace_path.c_str());
  add_failures(traced, base);
  std::printf("%s\n", result_json(traced, layers).c_str());
  return 0;
}
