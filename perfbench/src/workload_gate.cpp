// gate_fanout: the client-gate path of a spreadd daemon, without crypto.
//
// One daemon set up the way spreadd sets it up (netd::DaemonHost with one
// lane + netd::ClientGate), three netd::Client connections driven from the
// benchmark thread, one plain group. Set-up connects the clients and joins
// them one at a time; each client then keeps 8 multicasts of 64 B in flight
// until the round's fixed count reached all three clients; teardown has
// them leave one at a time.
//
// netd::Client::next_event with a timeout of 1 ms or less never reads the
// socket (its remaining-time computation truncates to 0 before poll), so
// every read here waits at least kPollMs.
#include <memory>

#include "netd/client.h"
#include "netd/client_gate.h"
#include "netd/daemon_host.h"
#include "obs/metrics.h"
#include "probes.h"
#include "stats.h"
#include "util/msgpath.h"
#include "workload.h"

namespace perfbench {

using namespace ss;

namespace {

constexpr std::size_t kClients = 3;
constexpr std::uint64_t kWindow = 8;
constexpr std::uint64_t kCount = 8000;  // multicasts per round
constexpr std::size_t kPayload = 64;
constexpr auto kPollMs = std::chrono::milliseconds(2);
constexpr double kStallMs = 5000;
constexpr const char* kGroup = "fanout";

const char* const kConf =
    "daemon 0 127.0.0.1:0\n"
    "heartbeat_ms 25\n"
    "fd_check_ms 25\n"
    "fail_timeout_ms 2000\n"
    "link_rto_ms 100\n"
    "gather_stable_ms 20\n"
    "gather_timeout_ms 1000\n"
    "recovery_timeout_ms 2000\n";

/// The three connections and what each has seen.
struct Clients {
  netd::Client conn[kClients];
  std::size_t view_size[kClients] = {};
  bool self_left[kClients] = {};
  DeliveryTracker* tracker = nullptr;
  std::uint64_t events = 0;

  /// Reads one event from client c (waiting up to kPollMs); false if none.
  bool pump_one(std::size_t c) {
    std::optional<netd::Client::Event> ev = conn[c].next_event(kPollMs);
    if (!ev) return false;
    ++events;
    if (ev->kind == netd::Client::Event::Kind::kView) {
      if (ev->view.reason == gcs::MembershipReason::kSelfLeave) {
        self_left[c] = true;
      } else {
        view_size[c] = ev->view.members.size();
      }
    } else if (ev->kind == netd::Client::Event::Kind::kMessage && tracker != nullptr) {
      const gcs::Message& m = ev->message;
      tracker->delivered(c, m.sender, m.payload.data(), m.payload.size());
    }
    return true;
  }

  /// Reads from every client still `waiting(c)` for an event until none
  /// is, or `timeout_ms` passes.
  template <typename Waiting>
  bool until(Waiting waiting, double timeout_ms) {
    const TimePoint start = Clock::now();
    for (;;) {
      bool any = false;
      for (std::size_t c = 0; c < kClients; ++c) {
        if (!waiting(c)) continue;
        any = true;
        pump_one(c);
      }
      if (!any) return true;
      if (ms_between(start, Clock::now()) > timeout_ms) return false;
    }
  }
};

/// One round: boot, set up, message phase, teardown. False after a failure
/// that leaves nothing more to measure (already counted in `out`).
bool gate_round(const PayloadCodec& codec, RunData& out) {
  ++out.rounds;
  const TimePoint t0 = Clock::now();
  netd::DaemonHost host(netd::parse_cluster_conf(kConf, "perfbench-gate"), 0,
                        netd::DaemonHost::Options{});
  host.start();
  netd::ClientGate gate(host);
  const net::Endpoint ep = gate.start(0);
  auto cl = std::make_unique<Clients>();

  bool ok = true;
  for (std::size_t c = 0; c < kClients && ok; ++c) {
    cl->conn[c].connect(ep);
    const TimePoint j0 = Clock::now();
    const double cpu0 = process_cpu_seconds();
    cl->conn[c].join(kGroup);
    ++out.attempted;
    ok = cl->until([&](std::size_t k) { return k <= c && cl->view_size[k] != c + 1; },
                   kStallMs);
    out.op_cpu_s += process_cpu_seconds() - cpu0;
    if (ok) {
      out.join_ms["plain"].push_back(ms_between(j0, Clock::now()));
      ++out.ops;
    } else {
      ++out.op_timeout;  // the plain view never converged
    }
  }
  if (!ok) return false;
  out.setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);

  // --- message phase ------------------------------------------------------
  std::vector<gcs::MemberId> ids;
  for (const netd::Client& c : cl->conn) ids.push_back(c.id());
  DeliveryTracker tracker(codec, ids, kClients);
  cl->tracker = &tracker;
  runtime::RealtimeEnv& env = host.env();
  const runtime::Env node = env.env(host.id());
  LaneProbe probe(
      1,
      [node](std::size_t, std::int64_t due, std::function<void()> fn) {
        node.clock->at(due, std::move(fn));
      },
      [&env] { return static_cast<std::int64_t>(env.now()); });
  const net::UdpTransport::Stats udp0 = host.transport().stats();
  const runtime::RealtimeEnv::Stats env0 = env.stats();
  const util::MsgPathStats path0 = util::msgpath();
  const std::uint64_t events0 = cl->events;
  const double cpu0 = process_cpu_seconds();
  const TimePoint m0 = Clock::now();
  std::vector<double> deciles{cpu0};
  std::uint64_t sent[kClients] = {};
  const std::uint64_t quota = kCount / kClients;
  const std::uint64_t count = quota * kClients;
  std::uint64_t done = 0;
  TimePoint last_progress = m0;
  bool stalled = false;
  while (done < count) {
    for (std::size_t c = 0; c < kClients; ++c) {
      const auto sender = static_cast<std::uint32_t>(c);
      while (sent[c] < quota && sent[c] - tracker.completed(sender) < kWindow) {
        const std::uint64_t seq = sent[c]++;
        const util::Bytes payload = codec.make(sender, seq);
        tracker.sent(sender, seq, Clock::now());
        const TimePoint a = Clock::now();
        cl->conn[c].multicast(gcs::ServiceType::kFifo, kGroup, 0, payload);
        out.netd_call_us.push_back(ms_between(a, Clock::now()) * 1000.0);
      }
    }
    // Read only from clients that still have deliveries coming: a read
    // from an idle connection would sit out the whole poll timeout.
    for (std::size_t c = 0; c < kClients; ++c) {
      for (int i = 0; i < 64 && tracker.outstanding(c) > 0; ++i) {
        if (!cl->pump_one(c)) break;
      }
    }
    probe.tick();
    const std::uint64_t now_done = tracker.completed_total();
    if (now_done != done) {
      last_progress = Clock::now();
      while (deciles.size() < 11 && now_done * 10 >= deciles.size() * count) {
        deciles.push_back(process_cpu_seconds());
      }
      done = now_done;
    } else if (ms_between(last_progress, Clock::now()) > kStallMs) {
      stalled = true;
      break;
    }
  }
  const double wall = ms_between(m0, Clock::now()) * 1e-3;
  const double cpu = process_cpu_seconds() - cpu0;
  cl->tracker = nullptr;
  const net::UdpTransport::Stats udp1 = host.transport().stats();
  const runtime::RealtimeEnv::Stats env1 = env.stats();
  const util::MsgPathStats path1 = util::msgpath();

  const DeliveryTracker::Outcome o =
      tracker.evaluate([](std::size_t, TimePoint) { return true; }, kStallMs);
  out.attempted += count;
  const std::uint64_t delivered = o.messages - o.missing;
  out.missing += count - delivered;
  out.corrupted += tracker.corrupted();
  add_round_latencies(out, o.latency_ms);
  if (!stalled && delivered > 0) {
    out.round_msgs_per_s.push_back(static_cast<double>(delivered) / wall);
    out.round_cpu_us_per_msg.push_back(cpu * 1e6 / static_cast<double>(delivered));
  }
  out.msgs += delivered;
  if (const auto growth = decile_growth(deciles)) out.cost_growth.push_back(*growth);
  const std::vector<double> waits = probe.waits_us();
  out.lane_wait_us.insert(out.lane_wait_us.end(), waits.begin(), waits.end());
  add(out, "netd.events", static_cast<double>(cl->events - events0));
  add(out, "udp.packets", static_cast<double>(udp1.packets_sent - udp0.packets_sent));
  add(out, "udp.bytes", static_cast<double>(udp1.bytes_sent - udp0.bytes_sent));
  add(out, "timers", static_cast<double>(env1.timers_fired - env0.timers_fired));
  add(out, "frames", static_cast<double>(path1.frames_sent - path0.frames_sent));
  add(out, "copies", static_cast<double>(path1.payload_copies - path0.payload_copies));
  if (stalled) return false;

  // --- teardown: leave one at a time --------------------------------------
  for (std::size_t c = 0; c < kClients && ok; ++c) {
    const TimePoint l0 = Clock::now();
    const double lcpu0 = process_cpu_seconds();
    cl->conn[c].leave(kGroup);
    ++out.attempted;
    ok = cl->until(
        [&](std::size_t k) {
          if (k == c) return !cl->self_left[c];
          return k > c && cl->view_size[k] != kClients - c - 1;
        },
        kStallMs);
    out.op_cpu_s += process_cpu_seconds() - lcpu0;
    if (ok) {
      out.leave_ms["plain"].push_back(ms_between(l0, Clock::now()));
      ++out.ops;
    } else {
      ++out.op_timeout;
    }
  }
  for (netd::Client& c : cl->conn) c.disconnect();
  gate.stop();
  host.stop();
  return ok;
}

}  // namespace

void run_gate(const RunOptions& opt, RunData& out) {
  const PayloadCodec codec(opt.seed, kClients, kPayload);
  // Warm-up round: lazy set-up is paid here and its samples dropped; its
  // failures count.
  RunData warm;
  const bool warm_ok = gate_round(codec, warm);
  add_failures(out, warm);
  if (!warm_ok) return;
  const TimePoint run_start = Clock::now();
  auto enough = [&] {
    const double elapsed = ms_between(run_start, Clock::now()) * 1e-3;
    if (elapsed >= 3 * opt.seconds) return true;  // hard cap
    return elapsed >= opt.seconds && sample_count(out.join_ms) >= 20 &&
           sample_count(out.leave_ms) >= 20;
  };
  while (!enough()) {
    if (!gate_round(codec, out)) break;
  }
}

}  // namespace perfbench
