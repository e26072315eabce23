// Ablation: rekey exponentiation cost per KA module at production group
// sizes. Drives the three registered key-agreement modules (cliques, ckd,
// tgdh) directly through an in-memory bus — no GCS, no network — and
// measures per-member modular-exponentiation tallies for one JOIN and one
// LEAVE rekey round at each group size. This extends the paper's Tables 2-3
// shape beyond its ~50-member reach: Cliques/CKD pay O(n) serial exps at
// the controller per event, the TGDH tree pays O(log n) at every member.
//
// Self-asserting (at sizes >= 100, i.e. the default n=500 point):
//   * every round must leave all members agreed on one key;
//   * TGDH max-per-member exps for join and leave stay <= 4*log2(n) + 16;
//   * Cliques leave cost at the controller is genuinely O(n) (>= n/2), and
//     TGDH's max is at least 4x below it — the tree earns its keep;
//   * with --baseline BENCH_rekey_ablation.json, per-member max exps must
//     match the recorded run within 10% (drift = the protocol started
//     doing more or less crypto work per rekey).
//
// Output: one JSON object on stdout (BENCH_rekey_ablation.json records the
// baseline). Knobs: SS_BENCH_GROUP (dh preset, default tiny64 — modulus
// size does not change exp counts), SS_BENCH_SIZES (default "50,500";
// 5000 reproduces the full ROADMAP sweep and takes minutes under cliques'
// O(n^2) bootstrap).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/drivers.h"
#include "crypto/drbg.h"
#include "crypto/exp_counter.h"
#include "secure/ka_module.h"

using namespace ss;
using Clock = std::chrono::steady_clock;

namespace {

using gcs::GroupView;
using gcs::MemberId;
using gcs::MembershipReason;

MemberId mid(std::uint32_t i) { return MemberId{i, 1}; }

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "bench_ablation_rekey: FAILED: %s\n", msg.c_str());
  std::_Exit(1);
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Cost of one membership rekey round, over all members of the bus.
struct RoundCost {
  std::uint64_t max_member_exps = 0;  // busiest member (controller/sponsor)
  std::uint64_t total_exps = 0;       // summed over every member
  double wall_ms = 0;
};

/// Serial in-memory bus over KA modules with per-member exponentiation
/// attribution: every module entry (membership event, protocol message,
/// deferred compute step) runs inline between exp-tally snapshots booked
/// against that member.
struct KaBus {
  KaBus(const std::string& ka_name, const crypto::DhGroup& dh)
      : dh_(dh), dir_(dh), name_(ka_name) {}

  void add_member(std::uint32_t i) {
    crypto::HmacDrbg boot(9000 + i, "ablation");
    dir_.ensure(mid(i), boot);
    rnds_.push_back(std::make_unique<crypto::HmacDrbg>(i, "ablation-member"));
    secure::KaModuleEnv env;
    env.dh = &dh_;
    env.directory = &dir_;
    env.rnd = rnds_.back().get();
    env.self = mid(i);
    modules_[mid(i)] = secure::KaRegistry::instance().create(name_, env);
  }

  void remove_member(std::uint32_t i) { modules_.erase(mid(i)); }

  GroupView make_view(const std::vector<std::uint32_t>& members, MembershipReason reason,
                      const std::vector<std::uint32_t>& joined,
                      const std::vector<std::uint32_t>& left) {
    GroupView v;
    v.group = "ablation";
    v.view_id = gcs::GroupViewId{gcs::ViewId{++round_, 0}, 0};
    for (auto m : members) v.members.push_back(mid(m));
    v.reason = reason;
    for (auto m : joined) v.joined.push_back(mid(m));
    for (auto m : left) v.left.push_back(mid(m));
    for (auto m : members) {
      if (std::find(joined.begin(), joined.end(), m) == joined.end()) {
        v.transitional.push_back(mid(m));
      }
    }
    return v;
  }

  /// Delivers a view to every module and pumps the resulting protocol
  /// traffic to quiescence, attributing exps to the executing member.
  void deliver_view(const GroupView& v) {
    current_view_ = v;
    for (auto& [id, module] : modules_) {
      secure::KaMembershipEvent ev{v, v.joined, v.left, 1};
      enqueue(attributed(id, [&] { return module->on_membership(ev); }), id);
    }
    pump();
  }

  void enqueue(secure::KaActions actions, const MemberId& from) {
    while (actions.pending_compute) {
      secure::KaActions::Deferred d = std::move(*actions.pending_compute);
      actions.pending_compute.reset();
      actions.merge(attributed(from, [&] { return d.step(); }));
    }
    for (auto& u : actions.unicasts) {
      gcs::Message m;
      m.group = "ablation";
      m.sender = from;
      m.msg_type = u.msg_type;
      m.payload = u.payload;
      m.view_id = current_view_.view_id;
      queue_.emplace_back(u.to, m);
    }
    for (auto& mc : actions.multicasts) {
      for (auto& [id, _] : modules_) {
        if (std::find(current_view_.members.begin(), current_view_.members.end(), id) ==
            current_view_.members.end()) {
          continue;
        }
        gcs::Message m;
        m.group = "ablation";
        m.sender = from;
        m.msg_type = mc.msg_type;
        m.payload = mc.payload;
        m.view_id = current_view_.view_id;
        queue_.emplace_back(id, m);
      }
    }
  }

  void pump() {
    while (!queue_.empty()) {
      auto [to, msg] = queue_.front();
      queue_.pop_front();
      ++messages_processed;
      auto it = modules_.find(to);
      if (it == modules_.end()) continue;
      enqueue(attributed(to, [&] { return it->second->on_message(msg); }), to);
    }
  }

  std::uint64_t messages_processed = 0;

  void assert_all_keyed(const std::string& what) {
    util::Bytes ref;
    for (const auto& m : current_view_.members) {
      auto it = modules_.find(m);
      if (it == modules_.end() || !it->second->has_key())
        die(name_ + " " + what + ": member " + m.to_string() + " not keyed");
      const util::Bytes k = it->second->session_key(16);
      if (ref.empty()) {
        ref = k;
      } else if (k != ref) {
        die(name_ + " " + what + ": member " + m.to_string() + " disagrees on the key");
      }
    }
  }

  void reset_tallies() { tallies_.clear(); }

  RoundCost collect() const {
    RoundCost c;
    for (const auto& [id, exps] : tallies_) {
      c.total_exps += exps;
      c.max_member_exps = std::max(c.max_member_exps, exps);
    }
    return c;
  }

 private:
  template <typename Fn>
  secure::KaActions attributed(const MemberId& id, Fn&& fn) {
    const crypto::ExpTally before = crypto::exp_tally();
    secure::KaActions actions = fn();
    tallies_[id] += (crypto::exp_tally() - before).total();
    return actions;
  }

  const crypto::DhGroup& dh_;
  cliques::KeyDirectory dir_;
  std::string name_;
  std::vector<std::unique_ptr<crypto::HmacDrbg>> rnds_;
  std::map<MemberId, std::unique_ptr<secure::KeyAgreementModule>> modules_;
  std::deque<std::pair<MemberId, gcs::Message>> queue_;
  GroupView current_view_;
  std::map<MemberId, std::uint64_t> tallies_;
  std::uint64_t round_ = 0;
};

struct SizeResult {
  std::uint64_t n = 0;
  double bootstrap_ms = 0;
  RoundCost join;
  RoundCost leave;
};

SizeResult run_module_at(const std::string& module, const crypto::DhGroup& dh,
                         std::uint64_t n) {
  KaBus bus(module, dh);
  SizeResult r;
  r.n = n;

  // Bootstrap (excluded from the per-round measurements; reported as wall
  // time only). TGDH forms in one everyone-new view — each member builds
  // the identical tree straight from the membership list. Cliques/CKD have
  // no such mode (an all-new view holds no keyed member to initiate from),
  // so those groups form by sequential joins as a real cluster does.
  std::vector<std::uint32_t> members;
  auto t0 = Clock::now();
  if (module == "tgdh") {
    for (std::uint32_t i = 1; i <= n; ++i) {
      bus.add_member(i);
      members.push_back(i);
    }
    bus.deliver_view(bus.make_view(members, MembershipReason::kJoin, members, {}));
  } else {
    for (std::uint32_t i = 1; i <= n; ++i) {
      bus.add_member(i);
      members.push_back(i);
      bus.deliver_view(bus.make_view(members, MembershipReason::kJoin, {i}, {}));
    }
  }
  bus.assert_all_keyed("bootstrap");
  r.bootstrap_ms = ms_since(t0);
  std::fprintf(stderr, "  %s n=%llu bootstrap: %.0f ms, %llu msgs\n", module.c_str(),
               static_cast<unsigned long long>(n), r.bootstrap_ms,
               static_cast<unsigned long long>(bus.messages_processed));
  bus.messages_processed = 0;

  // JOIN round: member n+1 arrives.
  const std::uint32_t joiner = static_cast<std::uint32_t>(n) + 1;
  bus.add_member(joiner);
  members.push_back(joiner);
  bus.reset_tallies();
  t0 = Clock::now();
  bus.deliver_view(bus.make_view(members, MembershipReason::kJoin, {joiner}, {}));
  r.join = bus.collect();
  r.join.wall_ms = ms_since(t0);
  bus.assert_all_keyed("join");
  std::fprintf(stderr, "  %s n=%llu join: %.0f ms, %llu msgs\n", module.c_str(),
               static_cast<unsigned long long>(n), r.join.wall_ms,
               static_cast<unsigned long long>(bus.messages_processed));
  bus.messages_processed = 0;

  // LEAVE round: a mid-group member departs (never the Cliques controller —
  // the newest member — nor the CKD controller — the oldest).
  const std::uint32_t leaver = members[members.size() / 2];
  members.erase(std::find(members.begin(), members.end(), leaver));
  bus.remove_member(leaver);
  bus.reset_tallies();
  t0 = Clock::now();
  bus.deliver_view(bus.make_view(members, MembershipReason::kLeave, {}, {leaver}));
  r.leave = bus.collect();
  r.leave.wall_ms = ms_since(t0);
  bus.assert_all_keyed("leave");
  return r;
}

std::vector<std::uint64_t> sizes_from_env() {
  if (const char* env = std::getenv("SS_BENCH_SIZES")) {
    std::vector<std::uint64_t> out;
    std::uint64_t v = 0;
    for (const char* p = env;; ++p) {
      if (*p >= '0' && *p <= '9') {
        v = v * 10 + static_cast<std::uint64_t>(*p - '0');
      } else {
        if (v > 1) out.push_back(v);
        v = 0;
        if (*p == '\0') break;
      }
    }
    if (!out.empty()) return out;
  }
  return {50, 500};
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) baseline = argv[++i];
  }
  const char* dh_env = std::getenv("SS_BENCH_GROUP");
  const std::string dh_name = dh_env != nullptr ? dh_env : "tiny64";
  const crypto::DhGroup& dh = crypto::DhGroup::by_name(dh_name);
  const std::vector<std::uint64_t> sizes = sizes_from_env();
  std::vector<std::string> modules = {"cliques", "ckd", "tgdh"};
  if (const char* only = std::getenv("SS_BENCH_MODULES")) {
    // Comma-separated subset, e.g. SS_BENCH_MODULES=tgdh (exploration only;
    // baseline comparison needs the full set).
    std::vector<std::string> picked;
    std::string cur;
    for (const char* p = only;; ++p) {
      if (*p == ',' || *p == '\0') {
        if (std::find(modules.begin(), modules.end(), cur) != modules.end())
          picked.push_back(cur);
        cur.clear();
        if (*p == '\0') break;
      } else {
        cur.push_back(*p);
      }
    }
    if (!picked.empty()) modules = picked;
  }

  // results[module][k] aligns with sizes[k].
  std::map<std::string, std::vector<SizeResult>> results;
  for (const std::string& m : modules) {
    for (std::uint64_t n : sizes) {
      results[m].push_back(run_module_at(m, dh, n));
      std::fprintf(stderr, "%s n=%llu: join max %llu exps, leave max %llu exps\n", m.c_str(),
                   static_cast<unsigned long long>(n),
                   static_cast<unsigned long long>(results[m].back().join.max_member_exps),
                   static_cast<unsigned long long>(results[m].back().leave.max_member_exps));
    }
  }

  // Complexity acceptance at production sizes: the tree must be O(log n)
  // per member while Cliques' controller is O(n). Only meaningful on the
  // full module set (SS_BENCH_MODULES subsets are for exploration).
  const bool full_set = results.count("tgdh") != 0 && results.count("cliques") != 0;
  for (std::size_t k = 0; full_set && k < sizes.size(); ++k) {
    const std::uint64_t n = sizes[k];
    if (n < 100) continue;
    const double log_bound = 4.0 * std::log2(static_cast<double>(n)) + 16.0;
    const SizeResult& tgdh = results["tgdh"][k];
    if (static_cast<double>(tgdh.join.max_member_exps) > log_bound)
      die("tgdh join at n=" + std::to_string(n) + ": max member exps " +
          std::to_string(tgdh.join.max_member_exps) + " > 4*log2(n)+16 = " +
          std::to_string(log_bound));
    if (static_cast<double>(tgdh.leave.max_member_exps) > log_bound)
      die("tgdh leave at n=" + std::to_string(n) + ": max member exps " +
          std::to_string(tgdh.leave.max_member_exps) + " > 4*log2(n)+16 = " +
          std::to_string(log_bound));
    const SizeResult& clq = results["cliques"][k];
    if (clq.leave.max_member_exps < n / 2)
      die("cliques leave at n=" + std::to_string(n) + ": controller exps " +
          std::to_string(clq.leave.max_member_exps) +
          " unexpectedly below n/2 — measurement broken?");
    if (tgdh.leave.max_member_exps * 4 >= clq.leave.max_member_exps)
      die("tgdh leave at n=" + std::to_string(n) + " (" +
          std::to_string(tgdh.leave.max_member_exps) +
          " exps) is not >= 4x below cliques (" +
          std::to_string(clq.leave.max_member_exps) + " exps)");
  }

  if (!baseline.empty()) {
    bench::Baseline base(baseline);
    for (const std::string& m : modules) {
      for (std::size_t k = 0; k < sizes.size(); ++k) {
        const std::string section = m + "_n" + std::to_string(sizes[k]);
        base.within(section, "join_max_exps",
                    static_cast<double>(results[m][k].join.max_member_exps), 0.10);
        base.within(section, "leave_max_exps",
                    static_cast<double>(results[m][k].leave.max_member_exps), 0.10);
      }
    }
    if (!base.ok()) die("baseline " + baseline + " not matched");
    std::fprintf(stderr, "baseline %s: within tolerance\n", baseline.c_str());
  }

  std::printf("{\n");
  std::printf("  \"config\": {\"dh\": \"%s\", \"sizes\": [", dh_name.c_str());
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    std::printf("%s%llu", k == 0 ? "" : ", ", static_cast<unsigned long long>(sizes[k]));
  }
  std::printf("]},\n");
  bool first = true;
  for (const std::string& m : modules) {
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      const SizeResult& r = results[m][k];
      if (!first) std::printf(",\n");
      first = false;
      std::printf("  \"%s_n%llu\": {\n", m.c_str(), static_cast<unsigned long long>(r.n));
      std::printf("    \"bootstrap_ms\": %.3f,\n", r.bootstrap_ms);
      std::printf("    \"join_max_exps\": %llu, \"join_total_exps\": %llu, "
                  "\"join_wall_ms\": %.3f,\n",
                  static_cast<unsigned long long>(r.join.max_member_exps),
                  static_cast<unsigned long long>(r.join.total_exps), r.join.wall_ms);
      std::printf("    \"leave_max_exps\": %llu, \"leave_total_exps\": %llu, "
                  "\"leave_wall_ms\": %.3f\n",
                  static_cast<unsigned long long>(r.leave.max_member_exps),
                  static_cast<unsigned long long>(r.leave.total_exps), r.leave.wall_ms);
      std::printf("  }");
    }
  }
  std::printf("\n}\n");
  return 0;
}
