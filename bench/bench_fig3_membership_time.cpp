// Reproduces paper Figure 3: total time of one join/leave operation versus
// group size, network overhead included.
//
// Setup mirrors the paper's: three daemons on a simulated LAN; two daemons
// host one member each and the third hosts all remaining members (the
// paper notes this makes large-group runs superlinear because the
// co-located clients' work serializes — our single-threaded simulation
// reproduces exactly that effect).
//
// Series:
//   spread  — plain GCS membership: join multicast -> every member holds
//             the new raw view.
//   flush   — View Synchrony: join -> every member installs the flushed
//             view (adds the n-member acknowledgement round).
//   secure  — secure Spread with Cliques at the configured modulus: join ->
//             every member holds the new group key. Real crypto CPU time is
//             charged into the virtual clock (each key-agreement call's
//             crypto::ComputeJob CPU time, via charge_crypto_time), so totals
//             include both network rounds and exponentiation cost.
// Set SS_TRACE=/path/to/trace.json to capture the full protocol timeline
// (EVS view changes, flush rounds, Cliques rekeys with per-phase mod-exp
// counts) as chrome-trace JSON — load it in chrome://tracing or Perfetto.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "bench/drivers.h"
#include "flush/flush.h"
#include "gcs/daemon.h"
#include "gcs/mailbox.h"
#include "obs/trace.h"
#include "secure/secure_client.h"
#include "sim/network.h"
#include "sim/scheduler.h"

using namespace ss;
using bench::bench_batch;
using bench::bench_dh;
using bench::bench_sizes;

namespace {

constexpr const char* kGroup = "fig3";

/// The live Stack's scheduler: each measurement builds a fresh simulation,
/// so the trace clock follows whichever one currently exists.
sim::Scheduler* g_trace_sched = nullptr;

struct Stack {
  Stack() : net(sched, 7) {
    if (obs::sink() != nullptr) g_trace_sched = &sched;
    // Production-scale failure timeouts (seconds, like the real Spread
    // daemons): the charged crypto time of a large-group rekey must never
    // look like a daemon failure.
    gcs::TimingConfig timing;
    timing.heartbeat_interval = 500 * sim::kMillisecond;
    timing.fd_check_interval = 250 * sim::kMillisecond;
    timing.fail_timeout = 2 * sim::kSecond;
    std::vector<gcs::DaemonId> ids = {0, 1, 2};
    for (gcs::DaemonId id : ids) {
      daemons.push_back(std::make_unique<gcs::Daemon>(ss::runtime::Env{&sched, &net, id}, ids, timing, 1000 + id));
      net.add_node(daemons.back().get());
    }
    for (auto& d : daemons) d->start();
    converge();
  }

  ~Stack() {
    if (g_trace_sched == &sched) g_trace_sched = nullptr;
  }

  void converge() {
    sched.run_until_condition(
        [&] {
          for (auto& d : daemons) {
            if (!d->is_operational() || d->view_members().size() != 3) return false;
          }
          return true;
        },
        sched.now() + 10 * sim::kSecond);
  }

  /// Daemon index for the paper's placement: members 0 and 1 get their own
  /// daemon, everyone else shares daemon 2.
  gcs::Daemon& place(std::size_t member_index) {
    return *daemons[member_index < 2 ? member_index : 2];
  }

  bool run_until(const std::function<bool()>& pred, sim::Time timeout = 60 * sim::kSecond) {
    return sched.run_until_condition(pred, sched.now() + timeout);
  }

  sim::Scheduler sched;
  sim::SimNetwork net;
  std::vector<std::unique_ptr<gcs::Daemon>> daemons;
};

double avg(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

// --- spread (raw GCS views) ---------------------------------------------------

double measure_spread(std::uint64_t n, int batch) {
  Stack s;
  std::vector<std::unique_ptr<gcs::Mailbox>> members;
  // Track, per mailbox, the size of its latest view of the group.
  std::vector<std::size_t> latest(n + 1, 0);
  auto attach = [&](std::size_t idx) {
    members.push_back(std::make_unique<gcs::Mailbox>(s.place(idx)));
    gcs::Mailbox& m = *members.back();
    m.on_view([&latest, idx](const gcs::GroupView& v) { latest[idx] = v.members.size(); });
    m.join(kGroup);
  };
  for (std::size_t i = 0; i + 1 < n; ++i) {
    attach(i);
    s.run_until([&] {
      for (std::size_t j = 0; j <= i; ++j) {
        if (latest[j] != i + 1) return false;
      }
      return true;
    });
  }

  std::vector<double> times;
  for (int b = 0; b < batch; ++b) {
    // Join of member n-1.
    attach(n - 1);
    const sim::Time t0 = s.sched.now();
    s.run_until([&] {
      for (std::size_t j = 0; j < n; ++j) {
        if (latest[j] != n) return false;
      }
      return true;
    });
    const double join_ms = static_cast<double>(s.sched.now() - t0) / 1000.0;

    // Leave of the same member.
    const sim::Time t1 = s.sched.now();
    members.back()->leave(kGroup);
    s.run_until([&] {
      for (std::size_t j = 0; j + 1 < n; ++j) {
        if (latest[j] != n - 1) return false;
      }
      return true;
    });
    const double leave_ms = static_cast<double>(s.sched.now() - t1) / 1000.0;
    members.pop_back();
    times.push_back((join_ms + leave_ms) / 2);
  }
  return avg(times);
}

// --- flush (VS views) ---------------------------------------------------------

double measure_flush(std::uint64_t n, int batch) {
  Stack s;
  std::vector<std::unique_ptr<flush::FlushMailbox>> members;
  std::vector<std::size_t> latest(n + 1, 0);
  auto attach = [&](std::size_t idx) {
    members.push_back(std::make_unique<flush::FlushMailbox>(s.place(idx)));
    flush::FlushMailbox& m = *members.back();
    m.on_view([&latest, idx](const gcs::GroupView& v) { latest[idx] = v.members.size(); });
    m.on_flush_request([&m](const gcs::GroupName& g) { m.flush_ok(g); });
    m.join(kGroup);
  };
  for (std::size_t i = 0; i + 1 < n; ++i) {
    attach(i);
    s.run_until([&] {
      for (std::size_t j = 0; j <= i; ++j) {
        if (latest[j] != i + 1) return false;
      }
      return true;
    });
  }

  std::vector<double> times;
  for (int b = 0; b < batch; ++b) {
    attach(n - 1);
    const sim::Time t0 = s.sched.now();
    s.run_until([&] {
      for (std::size_t j = 0; j < n; ++j) {
        if (latest[j] != n) return false;
      }
      return true;
    });
    const double join_ms = static_cast<double>(s.sched.now() - t0) / 1000.0;

    const sim::Time t1 = s.sched.now();
    members.back()->leave(kGroup);
    s.run_until([&] {
      for (std::size_t j = 0; j + 1 < n; ++j) {
        if (latest[j] != n - 1) return false;
      }
      return true;
    });
    const double leave_ms = static_cast<double>(s.sched.now() - t1) / 1000.0;
    members.pop_back();
    times.push_back((join_ms + leave_ms) / 2);
  }
  return avg(times);
}

// --- secure (Cliques + Blowfish) ----------------------------------------------

struct SecureTimes {
  double join_ms = 0;
  double leave_ms = 0;
};

SecureTimes measure_secure(std::uint64_t n, int batch, const crypto::DhGroup& dh) {
  Stack s;
  cliques::KeyDirectory dir(dh);
  std::vector<std::unique_ptr<secure::SecureGroupClient>> members;
  secure::SecureGroupConfig cfg;
  cfg.dh = &dh;

  auto attach = [&](std::size_t idx) {
    members.push_back(std::make_unique<secure::SecureGroupClient>(
        s.place(idx), dir, 500 + idx, /*charge_crypto_time=*/true));
    members.back()->join(kGroup, cfg);
  };
  auto all_keyed = [&](std::size_t want) {
    for (auto& m : members) {
      const auto* v = m->current_view(kGroup);
      if (v == nullptr || v->members.size() != want || !m->has_key(kGroup)) return false;
    }
    return true;
  };
  for (std::size_t i = 0; i + 1 < n; ++i) {
    attach(i);
    s.run_until([&] { return all_keyed(i + 1); });
  }

  std::vector<double> joins, leaves;
  for (int b = 0; b < batch; ++b) {
    attach(n - 1);
    const sim::Time t0 = s.sched.now();
    s.run_until([&] { return all_keyed(n); });
    joins.push_back(static_cast<double>(s.sched.now() - t0) / 1000.0);

    const sim::Time t1 = s.sched.now();
    members.back()->leave(kGroup);
    members.pop_back();
    s.run_until([&] { return all_keyed(n - 1); });
    leaves.push_back(static_cast<double>(s.sched.now() - t1) / 1000.0);
  }
  return {avg(joins), avg(leaves)};
}

}  // namespace

int main() {
  const auto& dh = bench_dh();
  const int batch = bench_batch(3);

  // Optional protocol trace capture (SS_TRACE=<output.json>).
  const char* trace_path = std::getenv("SS_TRACE");
  obs::TraceSink trace;
  std::optional<obs::TraceScope> trace_scope;
  if (trace_path != nullptr && *trace_path != '\0') {
    trace.set_clock([] { return g_trace_sched != nullptr ? g_trace_sched->now() : 0; });
    trace_scope.emplace(trace);
  }
  std::printf("Figure 3 — Total time of one join/leave vs group size (virtual ms,\n");
  std::printf("network included; crypto CPU charged to the clock for 'secure').\n");
  std::printf("Topology: 3 daemons; members 1-2 on own daemons, rest share daemon 3.\n");
  std::printf("DH group for secure series: %s (%zu-bit)\n\n", dh.name().c_str(),
              dh.p().bit_length());
  std::printf("%6s | %12s | %12s | %14s %14s\n", "n", "spread (ms)", "flush (ms)",
              "secure join", "secure leave");
  std::printf("-------+--------------+--------------+------------------------------\n");

  for (std::uint64_t n : bench_sizes()) {
    if (n < 2) continue;
    const double spread_ms = measure_spread(n, batch);
    const double flush_ms = measure_flush(n, batch);
    const SecureTimes sec = measure_secure(n, batch, dh);
    std::printf("%6llu | %12.2f | %12.2f | %14.1f %14.1f\n",
                static_cast<unsigned long long>(n), spread_ms, flush_ms, sec.join_ms,
                sec.leave_ms);
  }
  std::printf("\nExpected shape (paper): spread/flush in the low milliseconds and\n");
  std::printf("nearly flat; secure dominated by exponentiations, growing ~linearly\n");
  std::printf("(joins ~3x leaves), with flush slightly superlinear from the\n");
  std::printf("all-to-all acknowledgement round.\n");

  if (trace_scope.has_value()) {
    trace_scope.reset();  // stop recording before export
    if (!trace.write_chrome(trace_path)) {
      std::fprintf(stderr, "bench_fig3: failed to write trace to %s\n", trace_path);
      return 1;
    }
    std::fprintf(stderr, "bench_fig3: wrote %zu trace events to %s (%llu dropped)\n",
                 trace.size(), trace_path,
                 static_cast<unsigned long long>(trace.dropped()));
  }
  return 0;
}
