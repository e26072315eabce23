// Protocol-level drivers for the benchmark harness: in-memory groups of
// Cliques / CKD contexts with message plumbing, per-role exponentiation
// tallies and CPU timing. These measure pure key-agreement cost (Tables 2-4,
// Figure 4); the full-stack harness for Figure 3 lives in
// bench_fig3_membership_time.cpp. Also the `--baseline` comparator of the
// benches that record a BENCH_*.json.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ckd/ckd.h"
#include "cliques/clq.h"
#include "crypto/drbg.h"
#include "crypto/exp_counter.h"
#include "obs/stopwatch.h"

namespace ss::bench {

using cliques::MemberId;
using crypto::DhGroup;
using crypto::ExpTally;

inline MemberId mid(std::uint32_t i) { return MemberId{i, 1}; }

/// Cost of one membership operation, per protocol role.
struct OpCost {
  ExpTally controller_exps;
  ExpTally second_exps;  // joiner (join) — unused for leave
  double controller_cpu = 0;
  double second_cpu = 0;
  /// CPU summed over every member's processing (incl. broadcast handling).
  double total_cpu = 0;
};

/// Reads sizes from SS_BENCH_SIZES ("2,5,10") or returns the default sweep.
std::vector<std::uint64_t> bench_sizes();
/// Batch count from SS_BENCH_BATCH (default `def`).
int bench_batch(int def);

// ---------------------------------------------------------------------------

class ClqDriver {
 public:
  explicit ClqDriver(const DhGroup& dh, std::uint64_t seed = 4242)
      : dh_(dh), dir_(dh), rnd_(seed, "clq-bench") {
    dir_.ensure(mid(1), rnd_);
    ctxs_.emplace(mid(1),
                  std::make_unique<cliques::ClqContext>(dh_, dir_, mid(1), rnd_));
    members_ = {mid(1)};
    next_id_ = 2;
  }

  std::size_t size() const { return members_.size(); }

  /// Grows the group to n members (costs excluded from measurements).
  void grow_to(std::uint64_t n) {
    while (members_.size() < n) join();
  }

  /// One member joins; returns per-role costs.
  OpCost join() {
    const MemberId joiner = mid(next_id_++);
    dir_.ensure(joiner, rnd_);
    auto jc = std::make_unique<cliques::ClqContext>(dh_, dir_, joiner, rnd_);
    cliques::ClqContext& controller = *ctxs_.at(members_.back());
    std::vector<MemberId> final_members = members_;
    final_members.push_back(joiner);

    OpCost cost;
    crypto::reset_exp_tally();
    obs::CpuStopwatch sw;
    const cliques::ClqHandoffMsg handoff = controller.join_handoff(joiner);
    cost.controller_cpu = sw.seconds();
    cost.controller_exps = crypto::exp_tally();

    crypto::reset_exp_tally();
    sw.restart();
    const cliques::ClqBroadcastMsg bc = jc->join_finalize(handoff, final_members);
    cost.second_cpu = sw.seconds();
    cost.second_exps = crypto::exp_tally();

    ctxs_.emplace(joiner, std::move(jc));
    sw.restart();
    for (const auto& m : members_) ctxs_.at(m)->process_broadcast(bc, final_members);
    cost.total_cpu = cost.controller_cpu + cost.second_cpu + sw.seconds();
    members_ = final_members;
    crypto::reset_exp_tally();
    return cost;
  }

  /// The oldest non-controller member leaves; returns controller costs.
  OpCost leave() { return leave_member(members_.front()); }

  /// The controller (newest member) leaves.
  OpCost controller_leave() { return leave_member(members_.back()); }

  OpCost leave_member(const MemberId& leaver) {
    std::vector<MemberId> remaining;
    for (const auto& m : members_) {
      if (m != leaver) remaining.push_back(m);
    }
    ctxs_.erase(leaver);
    cliques::ClqContext& controller = *ctxs_.at(remaining.back());

    OpCost cost;
    crypto::reset_exp_tally();
    obs::CpuStopwatch sw;
    const cliques::ClqBroadcastMsg bc = controller.leave({leaver});
    cost.controller_cpu = sw.seconds();
    cost.controller_exps = crypto::exp_tally();

    sw.restart();
    for (const auto& m : remaining) ctxs_.at(m)->process_broadcast(bc, remaining);
    cost.total_cpu = cost.controller_cpu + sw.seconds();
    members_ = remaining;
    crypto::reset_exp_tally();
    return cost;
  }

 private:
  const DhGroup& dh_;
  cliques::KeyDirectory dir_;
  crypto::HmacDrbg rnd_;
  std::map<MemberId, std::unique_ptr<cliques::ClqContext>> ctxs_;
  std::vector<MemberId> members_;
  std::uint32_t next_id_ = 2;
};

// ---------------------------------------------------------------------------

class CkdDriver {
 public:
  explicit CkdDriver(const DhGroup& dh, std::uint64_t seed = 2424)
      : dh_(dh), dir_(dh), rnd_(seed, "ckd-bench") {
    dir_.ensure(mid(1), rnd_);
    ctxs_.emplace(mid(1), std::make_unique<ckd::CkdContext>(dh_, dir_, mid(1), rnd_));
    members_ = {mid(1)};
    next_id_ = 2;
  }

  std::size_t size() const { return members_.size(); }

  void grow_to(std::uint64_t n) {
    while (members_.size() < n) join();
  }

  OpCost join() {
    const MemberId joiner = mid(next_id_++);
    dir_.ensure(joiner, rnd_);
    auto jc = std::make_unique<ckd::CkdContext>(dh_, dir_, joiner, rnd_);
    ckd::CkdContext& controller = *ctxs_.at(members_.front());
    std::vector<MemberId> final_members = members_;
    final_members.push_back(joiner);

    OpCost cost;
    crypto::reset_exp_tally();
    obs::CpuStopwatch sw;
    auto round1s = controller.pairwise_begin(final_members);
    cost.controller_cpu += sw.seconds();
    cost.controller_exps += crypto::exp_tally();

    for (auto& [target, r1] : round1s) {
      crypto::reset_exp_tally();
      sw.restart();
      const ckd::CkdRound2Msg r2 = jc->pairwise_respond(r1);
      cost.second_cpu += sw.seconds();
      cost.second_exps += crypto::exp_tally();

      crypto::reset_exp_tally();
      sw.restart();
      controller.pairwise_complete(r2);
      cost.controller_cpu += sw.seconds();
      cost.controller_exps += crypto::exp_tally();
    }

    crypto::reset_exp_tally();
    sw.restart();
    const ckd::CkdKeyDistMsg dist = controller.distribute(final_members);
    cost.controller_cpu += sw.seconds();
    cost.controller_exps += crypto::exp_tally();

    ctxs_.emplace(joiner, std::move(jc));
    double others = 0;
    for (const auto& m : final_members) {
      if (m == members_.front()) continue;
      crypto::reset_exp_tally();
      sw.restart();
      ctxs_.at(m)->process_key_dist(dist, final_members);
      const double dt = sw.seconds();
      if (m == joiner) {
        cost.second_cpu += dt;
        cost.second_exps += crypto::exp_tally();
      } else {
        others += dt;
      }
    }
    cost.total_cpu = cost.controller_cpu + cost.second_cpu + others;
    members_ = final_members;
    crypto::reset_exp_tally();
    return cost;
  }

  OpCost leave() {
    // A regular (non-controller) member leaves: pick the second oldest.
    const MemberId leaver = members_[1];
    std::vector<MemberId> remaining;
    for (const auto& m : members_) {
      if (m != leaver) remaining.push_back(m);
    }
    ctxs_.erase(leaver);
    ckd::CkdContext& controller = *ctxs_.at(remaining.front());
    controller.forget_pairwise(leaver);

    OpCost cost;
    crypto::reset_exp_tally();
    obs::CpuStopwatch sw;
    const ckd::CkdKeyDistMsg dist = controller.distribute(remaining);
    cost.controller_cpu = sw.seconds();
    cost.controller_exps = crypto::exp_tally();

    sw.restart();
    for (const auto& m : remaining) ctxs_.at(m)->process_key_dist(dist, remaining);
    cost.total_cpu = cost.controller_cpu + sw.seconds();
    members_ = remaining;
    crypto::reset_exp_tally();
    return cost;
  }

  OpCost controller_leave() {
    const MemberId old = members_.front();
    std::vector<MemberId> remaining(members_.begin() + 1, members_.end());
    ctxs_.erase(old);
    ckd::CkdContext& nc = *ctxs_.at(remaining.front());
    for (const auto& m : remaining) ctxs_.at(m)->forget_pairwise(old);

    OpCost cost;
    crypto::reset_exp_tally();
    obs::CpuStopwatch sw;
    auto round1s = nc.pairwise_begin(remaining);
    cost.controller_cpu += sw.seconds();
    cost.controller_exps += crypto::exp_tally();

    double others = 0;
    for (auto& [target, r1] : round1s) {
      sw.restart();
      const ckd::CkdRound2Msg r2 = ctxs_.at(target)->pairwise_respond(r1);
      others += sw.seconds();
      crypto::reset_exp_tally();
      sw.restart();
      nc.pairwise_complete(r2);
      cost.controller_cpu += sw.seconds();
      cost.controller_exps += crypto::exp_tally();
    }
    crypto::reset_exp_tally();
    sw.restart();
    const ckd::CkdKeyDistMsg dist = nc.distribute(remaining);
    cost.controller_cpu += sw.seconds();
    cost.controller_exps += crypto::exp_tally();

    sw.restart();
    for (const auto& m : remaining) ctxs_.at(m)->process_key_dist(dist, remaining);
    cost.total_cpu = cost.controller_cpu + others + sw.seconds();
    members_ = remaining;
    crypto::reset_exp_tally();
    return cost;
  }

 private:
  const DhGroup& dh_;
  cliques::KeyDirectory dir_;
  crypto::HmacDrbg rnd_;
  std::map<MemberId, std::unique_ptr<ckd::CkdContext>> ctxs_;
  std::vector<MemberId> members_;
  std::uint32_t next_id_ = 2;
};

// --- shared option parsing ---------------------------------------------------

inline std::vector<std::uint64_t> bench_sizes() {
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
  return {2, 3, 5, 7, 10, 15, 20, 25, 30};
}

inline int bench_batch(int def) {
  if (const char* env = std::getenv("SS_BENCH_BATCH")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return def;
}

inline const DhGroup& bench_dh() {
  const char* env = std::getenv("SS_BENCH_GROUP");
  return DhGroup::by_name(env != nullptr ? env : "ss512");
}

/// `--baseline FILE`: compares measurements with a BENCH_*.json the bench
/// wrote earlier. A record is the number after `"key":` following the first
/// `"section"` in the file: an anchor for files whose shape the bench
/// controls, not a general JSON parser. Every failed check is printed to
/// stderr; ok() reports whether all of them held.
class Baseline {
 public:
  explicit Baseline(const std::string& path) : path_(path) {
    std::ifstream in(path);
    if (!in) {
      fail("cannot read the file");
      return;
    }
    std::stringstream text;
    text << in.rdbuf();
    text_ = text.str();
  }

  /// Exactly the record (counters of a deterministic run).
  void equal(const std::string& section, const std::string& key, double measured) {
    check(section, key, measured, [](double want, double got) { return got == want; });
  }
  /// Within ±`band` of a positive record (0.10 = ±10%).
  void within(const std::string& section, const std::string& key, double measured,
              double band) {
    check(section, key, measured, [band](double want, double got) {
      return want > 0 && std::abs(got - want) / want <= band;
    });
  }
  /// At most `factor` times the record (a loose bound for wall-clock time).
  void at_most(const std::string& section, const std::string& key, double measured,
               double factor) {
    check(section, key, measured,
          [factor](double want, double got) { return got <= want * factor; });
  }

  bool ok() const { return ok_; }

 private:
  template <typename Holds>
  void check(const std::string& section, const std::string& key, double measured,
             Holds holds) {
    const auto s = text_.find("\"" + section + "\"");
    const auto k = s == std::string::npos ? s : text_.find("\"" + key + "\"", s);
    const auto colon = k == std::string::npos ? k : text_.find(':', k);
    if (colon == std::string::npos) {
      fail("missing " + section + "." + key);
      return;
    }
    const double want = std::strtod(text_.c_str() + colon + 1, nullptr);
    if (!holds(want, measured)) {
      fail(section + "." + key + " drifted: recorded " + std::to_string(want) +
           ", measured " + std::to_string(measured));
    }
  }

  void fail(const std::string& msg) {
    std::fprintf(stderr, "baseline %s: %s\n", path_.c_str(), msg.c_str());
    ok_ = false;
  }

  std::string path_;
  std::string text_;
  bool ok_ = true;
};

}  // namespace ss::bench
