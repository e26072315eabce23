// Data-path micro-benchmark: copies per multicast along the zero-copy
// message path (util::SharedBytes + scatter-gather frames + link packing).
//
// Three steady-state scenarios, counters from util/msgpath.h:
//
//   local   — 1 daemon, 8 clients in one group. Delivery is pure fan-out
//             inside the daemon; the refactor shares one payload block
//             across all clients, so a multicast costs ZERO payload copies.
//
//   daemons — 4 daemons x 2 clients, kAgreed service. The sender's daemon
//             gathers headers + payload into one wire image (exactly one
//             counted copy) and shares that block across all peer links;
//             receivers alias the scatter body end to end.
//
//   packed  — the daemons topology with bursts of 8 small messages, which
//             the link layer packs into shared frames.
//
// Output: one JSON object on stdout (BENCH_msgpath.json records the
// baseline). Self-asserting: exits nonzero if copies-per-multicast exceeds
// the contract (0 local, 1 daemons), so CI can run it as a smoke test.
// With `--baseline BENCH_msgpath.json` every scenario counter must also
// equal the recorded one exactly (the sim runs are deterministic); the
// `overhead` block is timing and is not compared.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/drivers.h"
#include "gcs/daemon.h"
#include "gcs/mailbox.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "util/bytes.h"
#include "util/msgpath.h"

using namespace ss;

namespace {

constexpr int kMulticasts = 64;
constexpr std::size_t kPayloadSize = 4096;  // > link_pack_limit: data rides unpacked

struct ScenarioResult {
  std::string name;
  std::size_t payload_size = kPayloadSize;
  std::uint64_t multicasts = 0;
  std::uint64_t delivered_msgs = 0;
  std::uint64_t delivered_bytes = 0;
  /// Real CPU time of the steady-state section (the overhead A/B metric).
  double cpu_seconds = 0;
  util::MsgPathStats stats;

  /// The scenario's counters, in output order (what --baseline compares).
  std::vector<std::pair<const char*, std::uint64_t>> counters() const {
    return {{"multicasts", multicasts},
            {"payload_bytes", payload_size},
            {"delivered_msgs", delivered_msgs},
            {"delivered_bytes", delivered_bytes},
            {"payload_allocs", stats.payload_allocs},
            {"payload_copies", stats.payload_copies},
            {"payload_bytes_copied", stats.payload_bytes_copied},
            {"frames_sent", stats.frames_sent},
            {"frames_packed", stats.frames_packed},
            {"messages_packed", stats.messages_packed}};
  }

  double copies_per_multicast() const {
    return static_cast<double>(stats.payload_copies) / static_cast<double>(multicasts);
  }
  double bytes_copied_per_delivered_byte() const {
    return static_cast<double>(stats.payload_bytes_copied) /
           static_cast<double>(delivered_bytes);
  }
};

ScenarioResult run_scenario(const std::string& name, std::size_t n_daemons,
                            std::size_t clients_per_daemon, gcs::ServiceType service,
                            std::size_t payload_size = kPayloadSize, int burst = 1,
                            bool traced = false, int multicasts = kMulticasts) {
  sim::Scheduler sched;
  // Each scenario lists its components' counters in its own registry, so
  // runs cannot pile series into each other or into the process default
  // (the msgpath block is process-wide and reset before the steady state).
  // `traced` additionally installs a live TraceSink: the only difference
  // between the two arms of the overhead check.
  obs::MetricsRegistry registry;
  obs::RegistryScope metrics_scope(registry);
  obs::TraceSink trace;
  std::optional<obs::TraceScope> trace_scope;
  if (traced) {
    trace.set_clock([&sched] { return sched.now(); });
    trace_scope.emplace(trace);
  }
  sim::SimNetwork net(sched, 42);
  std::vector<gcs::DaemonId> ids;
  for (std::size_t i = 0; i < n_daemons; ++i) ids.push_back(static_cast<gcs::DaemonId>(i));
  std::vector<std::unique_ptr<gcs::Daemon>> daemons;
  for (gcs::DaemonId id : ids) {
    daemons.push_back(
        std::make_unique<gcs::Daemon>(ss::runtime::Env{&sched, &net, id}, ids, gcs::TimingConfig{}, 5 + id));
    net.add_node(daemons.back().get());
  }
  for (auto& d : daemons) d->start();
  sched.run_until_condition(
      [&] {
        for (auto& d : daemons) {
          if (!d->is_operational() || d->view_members().size() != n_daemons) return false;
        }
        return true;
      },
      10 * sim::kSecond);

  std::uint64_t delivered_msgs = 0;
  std::uint64_t delivered_bytes = 0;
  std::vector<std::unique_ptr<gcs::Mailbox>> clients;
  for (auto& d : daemons) {
    for (std::size_t c = 0; c < clients_per_daemon; ++c) {
      clients.push_back(std::make_unique<gcs::Mailbox>(*d));
      clients.back()->on_message([&](const gcs::Message& m) {
        ++delivered_msgs;
        delivered_bytes += m.payload.size();
      });
      clients.back()->join("bench");
    }
  }
  sched.run_for(2 * sim::kSecond);  // memberships settle

  // Steady state: count only the data path.
  util::msgpath_reset();
  const util::Bytes payload(payload_size, 0x5A);
  const obs::CpuStopwatch sw;
  for (int i = 0; i < multicasts; i += burst) {
    // A burst lands in one instant: small messages to the same peer pack.
    for (int k = 0; k < burst && i + k < multicasts; ++k) {
      clients.front()->multicast(service, "bench", payload);
    }
    sched.run_for(50 * sim::kMillisecond);
  }
  sched.run_for(sim::kSecond);

  ScenarioResult r;
  r.name = name;
  r.payload_size = payload_size;
  r.multicasts = static_cast<std::uint64_t>(multicasts);
  r.delivered_msgs = delivered_msgs;
  r.delivered_bytes = delivered_bytes;
  r.cpu_seconds = sw.seconds();
  r.stats = util::msgpath();
  if (traced && std::getenv("SS_BENCH_DEBUG") != nullptr) {
    std::fprintf(stderr, "debug: traced run recorded %zu events\n", trace.size());
  }
  return r;
}

void print_json(const ScenarioResult& r, bool last) {
  std::printf("  \"%s\": {\n", r.name.c_str());
  for (const auto& [key, value] : r.counters()) {
    std::printf("    \"%s\": %llu,\n", key, static_cast<unsigned long long>(value));
  }
  std::printf("    \"copies_per_multicast\": %.4f,\n", r.copies_per_multicast());
  std::printf("    \"bytes_copied_per_delivered_byte\": %.4f\n",
              r.bytes_copied_per_delivered_byte());
  std::printf("  }%s\n", last ? "" : ",");
}

/// One overhead-arm run: the daemons topology with 8x the multicast count,
/// so the steady-state section is long enough (~100 ms CPU) for thread-CPU
/// readings to be stable on a shared box.
double overhead_run(bool traced) {
  return run_scenario("daemons", 4, 2, gcs::ServiceType::kAgreed, kPayloadSize, 1, traced,
                      kMulticasts * 8)
      .cpu_seconds;
}

double env_double(const char* name, double def) {
  const char* env = std::getenv(name);
  if (env == nullptr) return def;
  const double v = std::atof(env);
  return v > 0 ? v : def;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) baseline = argv[++i];
  }

  // local: 1 daemon, 8 clients — delivery never leaves the daemon.
  const ScenarioResult local =
      run_scenario("local", 1, 8, gcs::ServiceType::kAgreed);
  // daemons: 4 daemons x 2 clients, total-order service across the wire.
  const ScenarioResult wide =
      run_scenario("daemons", 4, 2, gcs::ServiceType::kAgreed);
  // packed: same topology, bursts of 8 small messages — the link layer
  // packs them into shared frames (Spread's small-message packing).
  const ScenarioResult packed =
      run_scenario("packed", 4, 2, gcs::ServiceType::kAgreed, 64, 8);

  // Overhead A/B: a live TraceSink (the gated trace points on the hot path)
  // must stay within max_ratio of the untraced path; the arms differ only
  // by the installed sink. Min-of-N thread-CPU runs of the daemons scenario.
  // Defaults (10 reps, 15% band) hold on single-core shared boxes: min-of-10
  // rejects scheduler noise, and 15% still catches any real hot-path
  // regression — unconditional tracing costs far more than that.
  const int reps = static_cast<int>(env_double("SS_BENCH_OVERHEAD_REPS", 10));
  const double max_ratio = env_double("SS_BENCH_OVERHEAD_MAX", 1.15);
  overhead_run(true);  // warm-up: page in both arms' code paths
  double cpu_off = 1e300;
  double cpu_on = 1e300;
  for (int i = 0; i < reps; ++i) {  // interleaved, min rejects noise
    cpu_off = std::min(cpu_off, overhead_run(false));
    cpu_on = std::min(cpu_on, overhead_run(true));
  }
  const double ratio = cpu_off > 0 ? cpu_on / cpu_off : 1.0;

  std::printf("{\n");
  print_json(local, false);
  print_json(wide, false);
  print_json(packed, false);
  std::printf("  \"overhead\": {\n");
  std::printf("    \"reps\": %d,\n", reps);
  std::printf("    \"cpu_off_ms\": %.3f,\n", cpu_off * 1e3);
  std::printf("    \"cpu_on_ms\": %.3f,\n", cpu_on * 1e3);
  std::printf("    \"ratio\": %.4f,\n", ratio);
  std::printf("    \"max_ratio\": %.4f\n", max_ratio);
  std::printf("  }\n");
  std::printf("}\n");

  bool ok = true;
  if (local.delivered_msgs != static_cast<std::uint64_t>(kMulticasts) * 8) {
    std::fprintf(stderr, "FAIL: local delivered %llu msgs, want %d\n",
                 static_cast<unsigned long long>(local.delivered_msgs), kMulticasts * 8);
    ok = false;
  }
  if (wide.delivered_msgs != static_cast<std::uint64_t>(kMulticasts) * 8) {
    std::fprintf(stderr, "FAIL: daemons delivered %llu msgs, want %d\n",
                 static_cast<unsigned long long>(wide.delivered_msgs), kMulticasts * 8);
    ok = false;
  }
  // Satellite contract: local delivery of one multicast performs ZERO
  // payload copies (the old path copied once into the daemon and once per
  // client).
  if (local.stats.payload_copies != 0) {
    std::fprintf(stderr, "FAIL: local copies_per_multicast = %.4f, want 0\n",
                 local.copies_per_multicast());
    ok = false;
  }
  // Tentpole contract: at most one copy per multicast across daemons (the
  // single header+payload gather, shared across all peer links). The old
  // path copied once per peer daemon plus once per local client.
  if (wide.copies_per_multicast() > 1.0) {
    std::fprintf(stderr, "FAIL: daemons copies_per_multicast = %.4f, want <= 1\n",
                 wide.copies_per_multicast());
    ok = false;
  }
  if (packed.delivered_msgs != static_cast<std::uint64_t>(kMulticasts) * 8) {
    std::fprintf(stderr, "FAIL: packed delivered %llu msgs, want %d\n",
                 static_cast<unsigned long long>(packed.delivered_msgs), kMulticasts * 8);
    ok = false;
  }
  if (packed.copies_per_multicast() > 1.0) {
    std::fprintf(stderr, "FAIL: packed copies_per_multicast = %.4f, want <= 1\n",
                 packed.copies_per_multicast());
    ok = false;
  }
  // Burst traffic must actually exercise the packing path.
  if (packed.stats.messages_packed == 0) {
    std::fprintf(stderr, "FAIL: packed scenario packed no messages\n");
    ok = false;
  }
  // Observability contract: tracing enabled must stay within max_ratio
  // (default 1.15) of the untraced hot path.
  if (ratio > max_ratio) {
    std::fprintf(stderr, "FAIL: trace-on/off cpu ratio = %.4f, want <= %.4f\n", ratio,
                 max_ratio);
    ok = false;
  }
  if (!baseline.empty()) {
    bench::Baseline base(baseline);
    for (const ScenarioResult* r : {&local, &wide, &packed}) {
      for (const auto& [key, value] : r->counters()) {
        base.equal(r->name, key, static_cast<double>(value));
      }
    }
    if (!base.ok()) {
      std::fprintf(stderr, "FAIL: counters differ from baseline %s\n", baseline.c_str());
      ok = false;
    }
  }
  if (!ok) return 1;
  std::fprintf(stderr,
               "bench_msg_path: OK (local %.2f, daemons %.2f, packed %.2f "
               "copies/multicast; %llu msgs packed into %llu frames; "
               "trace overhead x%.3f)\n",
               local.copies_per_multicast(), wide.copies_per_multicast(),
               packed.copies_per_multicast(),
               static_cast<unsigned long long>(packed.stats.messages_packed),
               static_cast<unsigned long long>(packed.stats.frames_packed), ratio);
  return 0;
}
