// churn: key agreement under membership change, three KA modules at once.
//
// Three secure groups (cliques, ckd, tgdh), 24 members each (8 per daemon),
// ss512. Set-up joins each group's members one at a time, waiting for key
// agreement after each join; the three groups set up concurrently. Then
// each group runs a closed loop of membership operations: a rotating
// non-controller member leaves, then rejoins, and the next operation starts
// only after every member holds the same new key.
//
// Each group also carries open-loop background traffic: member 0 (never a
// victim) multicasts 1 KiB at a fixed rate. Each message is timed from when
// it was *due*, so a send held in the secure layer's outbox during a flush
// or rekey shows as latency, and the generator's own lateness is recorded.
#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>

#include "cliques/key_directory.h"
#include "cluster.h"
#include "crypto/exp_counter.h"
#include "obs/metrics.h"
#include "probes.h"
#include "secure_group.h"
#include "util/msgpath.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {

using namespace ss;

namespace {

constexpr std::size_t kMembers = 24;
constexpr std::size_t kSender = 0;           // background sender, never a victim
constexpr double kRatePerGroup = 100;        // background multicasts per second
constexpr std::size_t kBackgroundBytes = 1024;
constexpr double kOpTimeoutMs = 5000;
constexpr double kDeliveryDeadlineMs = 5000;
constexpr int kRounds = 4;
const char* const kModules[] = {"cliques", "ckd", "tgdh"};

/// Per-group load state, owned by the benchmark thread.
struct Lane {
  std::unique_ptr<SecureGroup> group;
  std::unique_ptr<PayloadCodec> codec;
  std::unique_ptr<DeliveryTracker> tracker;
  std::vector<std::size_t> order;    // current members, oldest first
  std::vector<std::size_t> victims;  // seeded rotation
  std::size_t next_victim = 0;
  std::optional<MemberOp> op;
  std::size_t away = 0;               // member that left, when !present
  bool present = true;
  bool broken = false;
  std::size_t setup_next = 0;         // next member to join during set-up
  // Background schedule.
  TimePoint first_due{};
  std::uint64_t next_seq = 0;
  // Members in flux: [leave call, rejoin converged].
  std::vector<std::pair<std::size_t, std::pair<TimePoint, TimePoint>>> flux;
};

std::size_t controller(const Lane& l) {
  const std::string& ka = l.group->ka();
  if (ka == "cliques") return l.order.back();  // newest member controls
  if (ka == "ckd") return l.order.front();     // oldest member controls
  return kMembers;                             // tgdh: no controller
}

std::size_t pick_victim(Lane& l) {
  const std::size_t ctl = controller(l);
  for (;;) {
    const std::size_t v = l.victims[l.next_victim++ % l.victims.size()];
    if (v != ctl) return v;
  }
}

}  // namespace

void run_churn(const RunOptions& opt, RunData& out) {
  const double phase_s = opt.seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    ++out.rounds;
    const TimePoint t0 = Clock::now();
    Cluster cluster;
    cliques::KeyDirectory dir(crypto::DhGroup::ss512());
    util::Rng rng(opt.seed * 1315423911ULL + static_cast<std::uint64_t>(round));
    std::vector<Lane> lanes(std::size(kModules));
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      Lane& l = lanes[i];
      l.group = std::make_unique<SecureGroup>(cluster, dir, std::string("churn-") + kModules[i],
                                              kModules[i], kMembers,
                                              opt.seed * 31 + static_cast<std::uint64_t>(round) * 7 + i);
      l.codec = std::make_unique<PayloadCodec>(opt.seed + i, 1, kBackgroundBytes);
      l.tracker = std::make_unique<DeliveryTracker>(
          *l.codec, std::vector<gcs::MemberId>{l.group->id(kSender)}, kMembers);
      l.group->deliver_to(l.tracker.get());
      for (std::size_t m = 1; m < kMembers; ++m) l.victims.push_back(m);
      for (std::size_t k = l.victims.size(); k > 1; --k) {
        std::swap(l.victims[k - 1], l.victims[rng.below(k)]);
      }
    }

    // --- set-up: joins one at a time per group, groups concurrently -------
    RunData setup_scratch;  // set-up joins are not churn samples
    bool ok = true;
    for (;;) {
      bool all_done = true;
      for (Lane& l : lanes) {
        if (l.op) {
          const OpStatus st = poll_op(*l.group, *l.op, kOpTimeoutMs);
          if (st == OpStatus::kRunning) {
            all_done = false;
            continue;
          }
          book_op(*l.group, *l.op, st, setup_scratch);
          l.op.reset();
          if (st != OpStatus::kDone) ok = false;
        }
        if (ok && l.setup_next < kMembers) {
          std::vector<std::size_t> expected(l.setup_next + 1);
          std::iota(expected.begin(), expected.end(), 0);
          l.op = start_op(*l.group, true, l.setup_next, expected);
          l.order.push_back(l.setup_next++);
          all_done = false;
        }
      }
      if (all_done || !ok) break;
      const std::uint64_t seen = lanes[0].group->keys().progress();
      lanes[0].group->keys().wait_progress(seen, Clock::now() + std::chrono::milliseconds(1));
    }
    out.attempted += setup_scratch.attempted;
    out.op_timeout += setup_scratch.op_timeout;
    out.key_diverged += setup_scratch.key_diverged;
    if (!ok) break;
    out.setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);

    // --- churn phase --------------------------------------------------------
    LaneProbe probe(
        Cluster::kDaemons,
        [&](std::size_t lane, std::int64_t due, std::function<void()> fn) {
          cluster.post_at(lane, due, std::move(fn));
        },
        [&] { return static_cast<std::int64_t>(cluster.now()); });
    const double flush0 =
        static_cast<double>(obs::MetricsRegistry::current().counter_sum("flush.rounds_completed"));
    const std::uint64_t exps0 = crypto::global_exp_tally().total();
    const net::UdpTransport::Stats udp0 = cluster.udp().stats();
    const runtime::RealtimeEnv::Stats env0 = cluster.env().stats();
    const util::MsgPathStats path0 = util::msgpath();
    const gcs::DaemonStats d0 = cluster.stats();
    std::vector<std::uint64_t> views0;
    for (Lane& l : lanes) views0.push_back(l.group->keys().views());
    const std::uint64_t ops0 = out.ops;
    const double cpu0 = process_cpu_seconds();
    const TimePoint p0 = Clock::now();
    const auto period = std::chrono::duration<double>(1.0 / kRatePerGroup);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      lanes[i].first_due =
          p0 + std::chrono::duration_cast<Clock::duration>(period * (static_cast<double>(i) / 3.0));
    }
    const TimePoint p_end = p0 + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(phase_s));
    auto due_of = [&](const Lane& l, std::uint64_t seq) {
      return l.first_due +
             std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(seq));
    };

    for (;;) {
      const TimePoint now = Clock::now();
      const bool issuing = now < p_end;
      bool busy = false;
      TimePoint wake = now + std::chrono::milliseconds(2);
      for (Lane& l : lanes) {
        // Background traffic: send everything that has come due.
        while (issuing && due_of(l, l.next_seq) <= now) {
          const TimePoint due = due_of(l, l.next_seq);
          l.tracker->sent(0, l.next_seq, due);
          l.group->post_send(kSender, l.codec->make(0, l.next_seq));
          out.gen_late_ms.push_back(ms_between(due, Clock::now()));
          ++l.next_seq;
        }
        if (issuing) wake = std::min(wake, due_of(l, l.next_seq));
        if (l.broken) continue;
        if (l.op) {
          const OpStatus st = poll_op(*l.group, *l.op, kOpTimeoutMs);
          if (st == OpStatus::kRunning) {
            busy = true;
            continue;
          }
          book_op(*l.group, *l.op, st, out);
          if (st != OpStatus::kDone) {
            l.broken = true;  // a group without one key cannot churn on
            continue;
          }
          if (l.op->join) {
            l.flux.back().second.second = Clock::now();
            l.present = true;
          }
          l.op.reset();
        }
        if (!issuing) continue;
        if (l.present) {
          const std::size_t v = pick_victim(l);
          l.order.erase(std::find(l.order.begin(), l.order.end(), v));
          l.away = v;
          l.present = false;
          l.op = start_op(*l.group, false, v, l.order);
          l.flux.push_back({v, {l.op->start, TimePoint::max()}});
        } else {
          l.order.push_back(l.away);
          l.op = start_op(*l.group, true, l.away, l.order);
        }
        busy = true;
      }
      probe.tick();
      if (!issuing && !busy) break;
      lanes[0].group->keys().wait_progress(lanes[0].group->keys().progress(), wake);
    }
    const double cpu = process_cpu_seconds() - cpu0;
    const double wall = ms_between(p0, Clock::now()) * 1e-3;
    // Let the last background messages land before evaluating them.
    const TimePoint drain_until = Clock::now() + std::chrono::milliseconds(300);
    while (Clock::now() < drain_until) {
      lanes[0].group->keys().wait_progress(lanes[0].group->keys().progress(), drain_until);
    }

    std::uint64_t delivered = 0;
    std::vector<double> latency_ms;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      Lane& l = lanes[i];
      l.group->deliver_to(nullptr);
      // A member is excused from a message if it was in flux (left, or not
      // yet re-keyed after rejoining) at any point while the message could
      // legitimately still be in flight.
      const DeliveryTracker::Outcome o = l.tracker->evaluate(
          [&](std::size_t r, TimePoint due) {
            const TimePoint until = due + std::chrono::milliseconds(
                                              static_cast<int>(kDeliveryDeadlineMs));
            for (const auto& [m, span] : l.flux) {
              if (m == r && span.first <= until && span.second >= due) return false;
            }
            return true;
          },
          kDeliveryDeadlineMs);
      out.attempted += o.messages;
      out.missing += o.missing;
      out.corrupted += l.tracker->corrupted();
      delivered += o.messages - o.missing;
      latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
          add(out, "group_views", static_cast<double>(l.group->keys().views() - views0[i]));
      add(out, "secure.send_us", l.group->send_us_total());
      add(out, "secure.sends", static_cast<double>(l.group->sends()));
      const secure::SecureGroupStats s = l.group->stats();
      add(out, "secure.opened", static_cast<double>(s.opened));
      add(out, "secure.dropped", static_cast<double>(s.dropped_unauthentic +
                                                     s.dropped_undecodable + s.dropped_early_ka));
      add(out, "secure.coalesced", static_cast<double>(s.coalesced_views));
    }
    add_round_latencies(out, latency_ms);
    const std::uint64_t ops = out.ops - ops0;
    out.op_cpu_s += cpu;
    out.msgs += delivered;
    if (delivered > 0 && wall > 0) {
      out.round_msgs_per_s.push_back(static_cast<double>(delivered) / wall);
      out.round_cpu_us_per_msg.push_back(cpu * 1e6 / static_cast<double>(delivered));
    }
    const std::vector<double> waits = probe.waits_us();
    out.lane_wait_us.insert(out.lane_wait_us.end(), waits.begin(), waits.end());

    const net::UdpTransport::Stats udp1 = cluster.udp().stats();
    const runtime::RealtimeEnv::Stats env1 = cluster.env().stats();
    const util::MsgPathStats path1 = util::msgpath();
    const gcs::DaemonStats d1 = cluster.stats();
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
      add(out, "gathers", static_cast<double>(d1.gathers_started - d0.gathers_started));
    add(out, "flush_rounds",
        static_cast<double>(obs::MetricsRegistry::current().counter_sum("flush.rounds_completed")) -
            flush0);
    add(out, "op_exps", static_cast<double>(crypto::global_exp_tally().total() - exps0));
    add(out, "phase_ops", static_cast<double>(ops));
    bool any_broken = false;
    for (const Lane& l : lanes) any_broken |= l.broken;
    lanes.clear();  // clients go before the cluster
    if (any_broken) break;
  }
}

}  // namespace perfbench
