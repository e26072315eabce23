// mcast_small / mcast_large: sustained secure multicast in one view.
//
// One Cliques group of 12 members (4 per daemon, ss512). Set-up joins them
// one at a time, waiting for key agreement after each join (those joins
// are the workload's join samples). Three senders, one per daemon, each
// keep 8 multicasts in flight (closed loop, FIFO service) until the round's
// fixed count is delivered and decrypted at all 12 members. Teardown has
// members leave one at a time, each waiting for the survivors to re-key
// (the leave samples).
#include <numeric>

#include "cliques/key_directory.h"
#include "cluster.h"
#include "crypto/exp_counter.h"
#include "obs/metrics.h"
#include "probes.h"
#include "secure_group.h"
#include "stats.h"
#include "util/msgpath.h"
#include "workload.h"

namespace perfbench {

using namespace ss;

namespace {

constexpr std::size_t kMembers = 12;
constexpr std::size_t kSenders = 3;
constexpr std::uint64_t kWindow = 8;  // multicasts in flight per sender
constexpr double kStallMs = 5000;     // no progress for this long: give up

/// The message phase of one round. Returns false if it stalled.
bool message_phase(Cluster& cluster, SecureGroup& g, const PayloadCodec& codec,
                   std::uint64_t count, RunData& out) {
  std::vector<gcs::MemberId> sender_ids;
  for (std::size_t s = 0; s < kSenders; ++s) sender_ids.push_back(g.id(s));
  DeliveryTracker tracker(codec, sender_ids, kMembers);
  g.deliver_to(&tracker);
  LaneProbe probe(
      Cluster::kDaemons,
      [&](std::size_t lane, std::int64_t due, std::function<void()> fn) {
        cluster.post_at(lane, due, std::move(fn));
      },
      [&] { return static_cast<std::int64_t>(cluster.now()); });

  std::vector<std::uint64_t> quota(kSenders, count / kSenders);
  for (std::size_t s = 0; s < count % kSenders; ++s) ++quota[s];
  std::vector<std::uint64_t> sent(kSenders, 0);

  const net::UdpTransport::Stats udp0 = cluster.udp().stats();
  const runtime::RealtimeEnv::Stats env0 = cluster.env().stats();
  const util::MsgPathStats path0 = util::msgpath();
  const gcs::DaemonStats d0 = cluster.stats();
  const std::uint64_t retrans0 =
      obs::MetricsRegistry::current().counter_sum("gcs.link.retransmissions");
  const double cpu0 = process_cpu_seconds();
  const TimePoint t0 = Clock::now();

  std::vector<double> deciles{cpu0};
  TimePoint last_progress = t0;
  std::uint64_t done = 0;
  bool stalled = false;
  while (done < count) {
    for (std::size_t s = 0; s < kSenders; ++s) {
      const auto sender = static_cast<std::uint32_t>(s);
      while (sent[s] < quota[s] && sent[s] - tracker.completed(sender) < kWindow) {
        const std::uint64_t seq = sent[s]++;
        tracker.sent(sender, seq, Clock::now());
        g.post_send(s, codec.make(sender, seq));
      }
    }
    probe.tick();
    tracker.wait_progress(done, Clock::now() + std::chrono::milliseconds(2));
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
  const double wall = ms_between(t0, Clock::now()) * 1e-3;
  const double cpu = process_cpu_seconds() - cpu0;

  const net::UdpTransport::Stats udp1 = cluster.udp().stats();
  const runtime::RealtimeEnv::Stats env1 = cluster.env().stats();
  const util::MsgPathStats path1 = util::msgpath();
  const gcs::DaemonStats d1 = cluster.stats();
  g.deliver_to(nullptr);

  const DeliveryTracker::Outcome o =
      tracker.evaluate([](std::size_t, TimePoint) { return true; }, kStallMs);
  out.attempted += count;
  out.missing += count - (o.messages - o.missing);  // unsent messages are missing too
  out.corrupted += tracker.corrupted();
  add_round_latencies(out, o.latency_ms);
  const std::uint64_t delivered = o.messages - o.missing;
  if (!stalled && delivered > 0) {
    out.round_msgs_per_s.push_back(static_cast<double>(delivered) / wall);
    out.round_cpu_us_per_msg.push_back(cpu * 1e6 / static_cast<double>(delivered));
  }
  out.msgs += delivered;
  if (const auto growth = decile_growth(deciles)) out.cost_growth.push_back(*growth);
  const std::vector<double> waits = probe.waits_us();
  out.lane_wait_us.insert(out.lane_wait_us.end(), waits.begin(), waits.end());

  add(out, "udp.packets", static_cast<double>(udp1.packets_sent - udp0.packets_sent));
  add(out, "udp.bytes", static_cast<double>(udp1.bytes_sent - udp0.bytes_sent));
  add(out, "udp.drops",
      static_cast<double>((udp1.send_backpressure_drops - udp0.send_backpressure_drops) +
                          (udp1.send_errors - udp0.send_errors) +
                          (udp1.recv_truncated - udp0.recv_truncated)));
  add(out, "timers", static_cast<double>(env1.timers_fired - env0.timers_fired));
  add(out, "frames", static_cast<double>(path1.frames_sent - path0.frames_sent));
  add(out, "packs", static_cast<double>(path1.frames_packed - path0.frames_packed));
  add(out, "packed_msgs", static_cast<double>(path1.messages_packed - path0.messages_packed));
  add(out, "copies", static_cast<double>(path1.payload_copies - path0.payload_copies));
  add(out, "retrans",
      static_cast<double>(obs::MetricsRegistry::current().counter_sum("gcs.link.retransmissions") -
                          retrans0));
  add(out, "gathers", static_cast<double>(d1.gathers_started - d0.gathers_started));
  return !stalled;
}

/// One round: boot, set up, message phase, teardown. False after a failure
/// that leaves nothing more to measure (already counted in `out`).
bool mcast_round(const RunOptions& opt, const PayloadCodec& codec, std::uint64_t count,
                 std::uint64_t round, RunData& out) {
  ++out.rounds;
  const TimePoint t0 = Clock::now();
  const double flush0 =
      static_cast<double>(obs::MetricsRegistry::current().counter_sum("flush.rounds_completed"));
  const std::uint64_t exps0 = crypto::global_exp_tally().total();
  Cluster cluster;
  // A fresh directory per round: every set-up pays the same long-term key
  // generation a fresh deployment does.
  cliques::KeyDirectory dir(crypto::DhGroup::ss512());
  SecureGroup g(cluster, dir, "mcast", "cliques", kMembers, opt.seed + round);
  bool ok = true;
  for (std::size_t m = 0; m < kMembers && ok; ++m) {
    std::vector<std::size_t> expected(m + 1);
    std::iota(expected.begin(), expected.end(), 0);
    ok = run_op(g, /*join=*/true, m, expected, out);
  }
  if (!ok) return false;
  out.setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);

  const secure::SecureGroupStats sec0 = g.stats();
  const bool flowing = message_phase(cluster, g, codec, count, out);
  const secure::SecureGroupStats sec1 = g.stats();
  add(out, "secure.opened", static_cast<double>(sec1.opened - sec0.opened));
  add(out, "secure.send_us", g.send_us_total());
  add(out, "secure.sends", static_cast<double>(g.sends()));
  if (!flowing) return false;

  for (std::size_t m = 0; m + 1 < kMembers && ok; ++m) {
    std::vector<std::size_t> expected;
    for (std::size_t r = m + 1; r < kMembers; ++r) expected.push_back(r);
    ok = run_op(g, /*join=*/false, m, expected, out);
  }
  const secure::SecureGroupStats sec2 = g.stats();
  add(out, "secure.dropped",
      static_cast<double>(sec2.dropped_unauthentic + sec2.dropped_undecodable +
                          sec2.dropped_early_ka));
  add(out, "secure.coalesced", static_cast<double>(sec2.coalesced_views));
  add(out, "group_views", static_cast<double>(g.keys().views()));
  add(out, "flush_rounds",
      static_cast<double>(obs::MetricsRegistry::current().counter_sum("flush.rounds_completed")) -
          flush0);
  add(out, "op_exps", static_cast<double>(crypto::global_exp_tally().total() - exps0));
  return ok;
}

}  // namespace

void run_mcast(const RunOptions& opt, std::size_t payload_bytes, std::uint64_t count,
               RunData& out) {
  const PayloadCodec codec(opt.seed, kSenders, payload_bytes);
  // Warm-up round: lazy set-up (allocator growth, first thread starts,
  // page faults) is paid here and its samples dropped; its failures count.
  RunData warm;
  const bool warm_ok = mcast_round(opt, codec, count, 0, warm);
  add_failures(out, warm);
  if (!warm_ok) return;
  const TimePoint run_start = Clock::now();
  // Join and leave samples need >= 20 each for their medians.
  auto enough = [&] {
    const double elapsed = ms_between(run_start, Clock::now()) * 1e-3;
    if (elapsed >= 3 * opt.seconds) return true;  // hard cap
    return elapsed >= opt.seconds && sample_count(out.join_ms) >= 20 &&
           sample_count(out.leave_ms) >= 20;
  };
  for (std::uint64_t round = 1; !enough(); ++round) {
    if (!mcast_round(opt, codec, count, round, out)) break;
  }
}

}  // namespace perfbench
