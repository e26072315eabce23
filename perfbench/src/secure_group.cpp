#include "secure_group.h"

#include <algorithm>

#include "probes.h"

namespace perfbench {

using namespace ss;

SecureGroup::SecureGroup(Cluster& cluster, cliques::KeyDirectory& dir, std::string name,
                         std::string ka_module, std::size_t members, std::uint64_t seed)
    : cluster_(cluster),
      dir_(dir),
      name_(std::move(name)),
      ka_(std::move(ka_module)),
      keys_(members),
      ids_(members),
      clients_(members) {
  cfg_.ka_module = ka_;
  cfg_.dh = &crypto::DhGroup::ss512();
  for (std::size_t m = 0; m < members; ++m) {
    cluster_.run_on(daemon_of(m), [this, m, seed] {
      auto c = std::make_unique<secure::SecureGroupClient>(cluster_.daemon(daemon_of(m)), dir_,
                                                           seed * 7919 + m);
      secure::SecureGroupClient* raw = c.get();
      c->on_message([this, m](const secure::SecureMessage& msg) {
        if (DeliveryTracker* t = tracker_.load()) {
          t->delivered(m, msg.sender, msg.plaintext.data(), msg.plaintext.size());
        }
      });
      c->on_view([this](const gcs::GroupView&) { keys_.viewed(); });
      c->on_rekey([this, m, raw](const gcs::GroupName& group, const secure::RekeyStats& st) {
        std::vector<gcs::MemberId> view;
        if (const gcs::GroupView* v = raw->current_view(group)) view = v->members;
        util::Bytes key;
        try {
          key = raw->key_material(group, 32);
        } catch (const std::logic_error&) {
          // Key in transition: an empty key never counts as converged.
        }
        keys_.installed(m, std::move(view), std::move(key), st);
      });
      ids_[m] = c->id();
      clients_[m] = std::move(c);
    });
  }
}

SecureGroup::~SecureGroup() {
  for (std::size_t m = 0; m < clients_.size(); ++m) {
    cluster_.run_on(daemon_of(m), [this, m] { clients_[m].reset(); });
  }
}

void SecureGroup::deliver_to(DeliveryTracker* tracker) {
  tracker_.store(tracker);
  if (tracker != nullptr) return;
  for (std::size_t d = 0; d < Cluster::kDaemons; ++d) cluster_.run_on(d, [] {});
}

void SecureGroup::post_join(std::size_t member) {
  cluster_.post(daemon_of(member),
                [this, member] { clients_[member]->join(name_, cfg_); });
}

void SecureGroup::post_leave(std::size_t member) {
  cluster_.post(daemon_of(member), [this, member] { clients_[member]->leave(name_); });
}

void SecureGroup::post_send(std::size_t member, util::Bytes payload) {
  cluster_.post(daemon_of(member), [this, member, payload = std::move(payload)]() mutable {
    const TimePoint a = Clock::now();
    clients_[member]->send(name_, std::move(payload));
    send_ns_.fetch_add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - a).count()));
    send_calls_.fetch_add(1);
  });
}

secure::SecureGroupStats SecureGroup::stats() {
  secure::SecureGroupStats sum;
  for (std::size_t m = 0; m < clients_.size(); ++m) {
    cluster_.run_on(daemon_of(m), [&, m] {
      const secure::SecureGroupStats s = clients_[m]->group_stats(name_);
      sum.sealed += s.sealed;
      sum.opened += s.opened;
      sum.dropped_unauthentic += s.dropped_unauthentic;
      sum.dropped_undecodable += s.dropped_undecodable;
      sum.rekeys += s.rekeys;
      sum.coalesced_views += s.coalesced_views;
      sum.dropped_early_ka += s.dropped_early_ka;
    });
  }
  return sum;
}

MemberOp start_op(SecureGroup& g, bool join, std::size_t member,
                  std::vector<std::size_t> expected) {
  MemberOp op;
  op.join = join;
  op.member = member;
  op.expected = std::move(expected);
  op.start = Clock::now();
  op.cpu_start = process_cpu_seconds();
  if (join) {
    g.post_join(member);
  } else {
    g.post_leave(member);
  }
  return op;
}

OpStatus poll_op(SecureGroup& g, const MemberOp& op, double timeout_ms) {
  std::vector<gcs::MemberId> ids;
  for (std::size_t m : op.expected) ids.push_back(g.id(m));
  const KeyTracker::State s = g.keys().check(op.expected, ids, op.start);
  if (s == KeyTracker::State::kConverged) return OpStatus::kDone;
  if (ms_between(op.start, Clock::now()) < timeout_ms) return OpStatus::kRunning;
  return s == KeyTracker::State::kDiverged ? OpStatus::kDiverged : OpStatus::kTimedOut;
}

void book_op(SecureGroup& g, const MemberOp& op, OpStatus status, RunData& out) {
  ++out.attempted;
  if (status == OpStatus::kTimedOut) {
    ++out.op_timeout;
    return;
  }
  if (status == OpStatus::kDiverged) {
    ++out.key_diverged;
    return;
  }
  // Done when the last expected member installed the common key (exact,
  // whenever the benchmark thread happened to notice).
  TimePoint last = op.start;
  // The members' own view of the agreement they just finished.
  double cpu_ms = 0;
  double exps_max = 0;
  double rekey_ms = 0;
  for (const KeyTracker::Install& in : g.keys().latest(op.expected)) {
    last = std::max(last, in.at);
    cpu_ms += in.stats.cpu_seconds * 1e3;
    exps_max = std::max(exps_max, static_cast<double>(in.stats.exps.total()));
    rekey_ms = std::max(rekey_ms,
                        static_cast<double>(in.stats.completed_at - in.stats.started_at) * 1e-3);
  }
  (op.join ? out.join_ms : out.leave_ms)[g.ka()].push_back(ms_between(op.start, last));
  ++out.ops;
  const std::string k = "ka." + g.ka();
  add(out, k + ".ops", 1);
  add(out, k + ".rekey_cpu_ms", cpu_ms);
  add(out, k + ".exps_max_member", exps_max);
  add(out, k + ".rekey_ms", rekey_ms);
}

bool run_op(SecureGroup& g, bool join, std::size_t member, std::vector<std::size_t> expected,
            RunData& out, double timeout_ms) {
  const MemberOp op = start_op(g, join, member, std::move(expected));
  OpStatus st = OpStatus::kRunning;
  for (;;) {
    const std::uint64_t seen = g.keys().progress();
    st = poll_op(g, op, timeout_ms);
    if (st != OpStatus::kRunning) break;
    g.keys().wait_progress(seen, Clock::now() + std::chrono::milliseconds(5));
  }
  out.op_cpu_s += process_cpu_seconds() - op.cpu_start;
  book_op(g, op, st, out);
  return st == OpStatus::kDone;
}

}  // namespace perfbench
