// Batched rekeying acceptance: a join+leave storm landing inside one
// rekey_batch_window must cost the surviving members exactly ONE rekey
// round (one epoch bump, the folded views counted as coalesced), and the
// batch must converge to one bit-identical group key. The same scenario
// runs over the discrete-event cluster (SimEnv) and over live lane threads
// (RealtimeEnv) — the batching semantics may not depend on the backend —
// and over every registered key-agreement module.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gcs/daemon.h"
#include "runtime/realtime_env.h"
#include "secure/secure_client.h"
#include "tests/cluster_fixture.h"

namespace ss::secure {
namespace {

using crypto::DhGroup;
using gcs::GroupName;
using testing::Cluster;
using testing::DelayedCompute;

constexpr const char* kGroup = "storm";

class BatchedStorm : public ::testing::TestWithParam<const char*> {
 protected:
  SecureGroupConfig config(runtime::Time window) const {
    SecureGroupConfig cfg;
    cfg.ka_module = GetParam();
    cfg.dh = &DhGroup::tiny64();
    cfg.rekey_batch_window = window;
    return cfg;
  }
};

// ---------------------------------------------------------------------------
// SimEnv arm
// ---------------------------------------------------------------------------

TEST_P(BatchedStorm, StormCostsOneRekeyRoundSim) {
  Cluster c(3);
  ASSERT_TRUE(c.converge(3));
  cliques::KeyDirectory dir(DhGroup::tiny64());
  const SecureGroupConfig cfg = config(500 * runtime::kMillisecond);

  auto make = [&](std::size_t daemon, std::uint64_t seed) {
    return std::make_unique<SecureGroupClient>(*c.daemons[daemon], dir, seed);
  };
  auto a = make(0, 1);
  auto b = make(1, 2);
  a->join(kGroup, cfg);
  b->join(kGroup, cfg);
  ASSERT_TRUE(c.run_until([&] { return a->has_key(kGroup) && b->has_key(kGroup); },
                          10 * sim::kSecond));

  const SecureGroupStats before = a->group_stats(kGroup);
  const std::uint64_t epoch_before = a->key_epoch(kGroup);

  // The storm: two joins and one leave, all inside one batch window but
  // spaced out enough that each lands as its own GCS view — the point is
  // the SECURE layer's coalescing, not the daemon folding them for us.
  auto c1 = make(2, 3);
  auto c2 = make(2, 4);
  c1->join(kGroup, cfg);
  c.run_for(60 * runtime::kMillisecond);
  c2->join(kGroup, cfg);
  c.run_for(60 * runtime::kMillisecond);
  b->leave(kGroup);

  ASSERT_TRUE(c.run_until(
      [&] {
        for (SecureGroupClient* m : {a.get(), c1.get(), c2.get()}) {
          const gcs::GroupView* v = m->current_view(kGroup);
          if (v == nullptr || v->members.size() != 3 || !m->has_key(kGroup)) return false;
        }
        return a->key_epoch(kGroup) > epoch_before;
      },
      20 * sim::kSecond));
  // Let the batch window drain fully before counting rounds.
  c.run_for(runtime::kSecond);

  const SecureGroupStats after = a->group_stats(kGroup);
  EXPECT_EQ(after.rekeys - before.rekeys, 1u)
      << "a join+join+leave storm inside the window must cost one rekey round";
  EXPECT_EQ(a->key_epoch(kGroup) - epoch_before, 1u);
  EXPECT_GE(after.coalesced_views - before.coalesced_views, 1u)
      << "the folded views must be visible in the coalesced counter";

  const util::Bytes ref = a->key_material(kGroup, 32);
  EXPECT_EQ(c1->key_material(kGroup, 32), ref);
  EXPECT_EQ(c2->key_material(kGroup, 32), ref);
}

// The endpoint-diff trap: a member that leaves and REJOINS inside one batch
// window cancels out of a naive final-members-vs-handed diff, so survivors
// would never be told it joined — its module state restarted, survivors'
// did not, and key agreement diverges permanently. The batch contract
// forces such a member into BOTH `left` and `joined`; survivors must tear
// it down, re-admit it, and the whole group must converge on one key in
// one rekey round — for every module.
TEST_P(BatchedStorm, LeaveThenRejoinInsideWindowSim) {
  Cluster c(3);
  ASSERT_TRUE(c.converge(3));
  cliques::KeyDirectory dir(DhGroup::tiny64());
  const SecureGroupConfig cfg = config(800 * runtime::kMillisecond);

  auto make = [&](std::size_t daemon, std::uint64_t seed) {
    return std::make_unique<SecureGroupClient>(*c.daemons[daemon], dir, seed);
  };
  auto a = make(0, 1);
  auto b = make(1, 2);
  auto d = make(2, 3);
  a->join(kGroup, cfg);
  b->join(kGroup, cfg);
  d->join(kGroup, cfg);
  ASSERT_TRUE(c.run_until(
      [&] { return a->has_key(kGroup) && b->has_key(kGroup) && d->has_key(kGroup); },
      10 * sim::kSecond));

  const SecureGroupStats before = a->group_stats(kGroup);
  const std::uint64_t epoch_before = a->key_epoch(kGroup);

  // Same member, same id: leave and rejoin with both views landing inside
  // the surviving members' batch window.
  b->leave(kGroup);
  c.run_for(60 * runtime::kMillisecond);
  b->join(kGroup, cfg);

  ASSERT_TRUE(c.run_until(
      [&] {
        for (SecureGroupClient* m : {a.get(), b.get(), d.get()}) {
          const gcs::GroupView* v = m->current_view(kGroup);
          if (v == nullptr || v->members.size() != 3 || !m->has_key(kGroup)) return false;
        }
        return a->key_epoch(kGroup) > epoch_before;
      },
      20 * sim::kSecond))
      << "leave-then-rejoin inside the window never re-keyed the rejoiner";
  // Let the batch window drain fully before counting rounds.
  c.run_for(2 * runtime::kSecond);

  const SecureGroupStats after = a->group_stats(kGroup);
  EXPECT_EQ(after.rekeys - before.rekeys, 1u)
      << "a leave+rejoin folded into one batch must cost one rekey round";
  EXPECT_EQ(a->key_epoch(kGroup) - epoch_before, 1u);
  EXPECT_GE(after.coalesced_views - before.coalesced_views, 1u)
      << "the rejoin view must have folded into the leave's pending batch";

  const util::Bytes ref = a->key_material(kGroup, 32);
  EXPECT_EQ(b->key_material(kGroup, 32), ref)
      << "the rejoined member must share the new group key";
  EXPECT_EQ(d->key_material(kGroup, 32), ref);
}

// With NO batch window, a cascade of views during an in-flight agreement
// exercises the generation guard instead: each superseding view bumps the
// KA generation, stale results are dropped on arrival, and the round
// restarted from the newest view still converges — for every module, joins
// and leaves interleaved. Inline compute finishes every call before the
// next view; a DelayedCompute completes calls after newer views landed,
// which is what drives the superseded-result branch.
TEST_P(BatchedStorm, CascadeDuringAgreementDropsStaleComputeSim) {
  constexpr runtime::Time kInline = ~runtime::Time{0};
  for (const runtime::Time delay : {kInline, runtime::Time{0}, runtime::Time{500},
                                    runtime::Time{8000}}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " compute delay " +
                   (delay == kInline ? std::string("inline") : std::to_string(delay) + " us"));
      DelayedCompute delayed(delay);
      Cluster c(3, seed, {}, {}, delay == kInline ? nullptr : &delayed);
      delayed.clock = &c.sched;
      ASSERT_TRUE(c.converge(3));
      cliques::KeyDirectory dir(DhGroup::tiny64());
      const SecureGroupConfig cfg = config(/*window=*/0);

      auto make = [&](std::size_t daemon, std::uint64_t client_seed) {
        return std::make_unique<SecureGroupClient>(*c.daemons[daemon], dir, client_seed);
      };
      auto a = make(0, 1);
      a->join(kGroup, cfg);
      ASSERT_TRUE(c.run_until([&] { return a->has_key(kGroup); }, 5 * sim::kSecond));

      // Fire the cascade with no settling in between: every view lands
      // while the previous agreement is still in flight.
      auto b = make(1, 2);
      auto d = make(2, 3);
      auto e = make(2, 4);
      b->join(kGroup, cfg);
      d->join(kGroup, cfg);
      e->join(kGroup, cfg);
      b->leave(kGroup);

      const bool converged = c.run_until(
          [&] {
            for (SecureGroupClient* m : {a.get(), d.get(), e.get()}) {
              const gcs::GroupView* v = m->current_view(kGroup);
              if (v == nullptr || v->members.size() != 3 || !m->has_key(kGroup)) return false;
            }
            return true;
          },
          30 * sim::kSecond);
      EXPECT_TRUE(converged) << "cascade with superseded agreements never converged";
      if (!converged) continue;
      c.run_for(runtime::kSecond);

      const util::Bytes ref = a->key_material(kGroup, 32);
      EXPECT_EQ(d->key_material(kGroup, 32), ref);
      EXPECT_EQ(e->key_material(kGroup, 32), ref);
      // Unbatched: the surviving member paid one rekey per installed view.
      EXPECT_GE(a->group_stats(kGroup).rekeys, 2u);
    }
  }
}

// Back-to-back joins at one instant: the daemons fold the burst into a few
// views, and the flush layer may collapse a cascade into one view whose
// `joined` list omits members that are new to a survivor's module. Every
// member must still end in the full view under one key.
TEST_P(BatchedStorm, BackToBackJoinsSim) {
  constexpr std::size_t kMembers = 12;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Cluster c(3, seed);
    ASSERT_TRUE(c.converge(3));
    cliques::KeyDirectory dir(DhGroup::tiny64());
    const SecureGroupConfig cfg = config(/*window=*/0);
    std::vector<std::unique_ptr<SecureGroupClient>> members;
    for (std::size_t i = 0; i < kMembers; ++i) {
      members.push_back(std::make_unique<SecureGroupClient>(*c.daemons[i % 3], dir, 100 + i));
    }
    for (auto& m : members) m->join(kGroup, cfg);

    const bool keyed = c.run_until(
        [&] {
          for (const auto& m : members) {
            const gcs::GroupView* v = m->current_view(kGroup);
            if (v == nullptr || v->members.size() != kMembers || !m->has_key(kGroup)) {
              return false;
            }
          }
          return true;
        },
        20 * sim::kSecond);
    std::size_t holding_key = 0;
    for (const auto& m : members) holding_key += m->has_key(kGroup) ? 1 : 0;
    EXPECT_TRUE(keyed) << holding_key << " of " << kMembers << " members hold a key";
    if (!keyed) continue;
    const util::Bytes ref = members.front()->key_material(kGroup, 32);
    for (const auto& m : members) {
      EXPECT_EQ(m->key_material(kGroup, 32), ref) << m->id().to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// RealtimeEnv arm
// ---------------------------------------------------------------------------

/// Joins the lane threads on any test exit before dependents die.
class StopEnvGuard {
 public:
  explicit StopEnvGuard(runtime::RealtimeEnv& env) : env_(env) {}
  ~StopEnvGuard() { env_.stop(); }

 private:
  runtime::RealtimeEnv& env_;
};

bool poll_until(const std::function<bool()>& pred,
                std::chrono::milliseconds budget = std::chrono::milliseconds(20'000)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

TEST_P(BatchedStorm, StormCostsOneRekeyRoundRealtime) {
  runtime::RealtimeEnv::Options opts;
  opts.lanes = 2;
  runtime::RealtimeEnv env(opts);
  constexpr std::size_t kDaemons = 3;
  std::vector<gcs::DaemonId> ids;
  for (std::size_t i = 0; i < kDaemons; ++i) ids.push_back(env.add_node());
  env.start();

  gcs::TimingConfig timing;
  timing.heartbeat_interval = 25 * runtime::kMillisecond;
  timing.fd_check_interval = 25 * runtime::kMillisecond;
  timing.fail_timeout = 2 * runtime::kSecond;
  timing.link_rto = 10 * runtime::kMillisecond;
  timing.gather_stable = 20 * runtime::kMillisecond;
  timing.gather_timeout = runtime::kSecond;
  timing.recovery_timeout = 2 * runtime::kSecond;

  cliques::KeyDirectory dir(DhGroup::tiny64());
  // A wide window: the whole scripted storm lands inside it comfortably
  // even on a loaded machine.
  const SecureGroupConfig cfg = config(2 * runtime::kSecond);
  std::vector<std::unique_ptr<gcs::Daemon>> daemons;
  std::unique_ptr<SecureGroupClient> a;
  std::unique_ptr<SecureGroupClient> b;
  std::unique_ptr<SecureGroupClient> c1;
  std::unique_ptr<SecureGroupClient> c2;
  StopEnvGuard stop_guard(env);

  for (gcs::DaemonId id : ids) {
    daemons.push_back(std::make_unique<gcs::Daemon>(env.env(id), ids, timing, /*seed=*/77));
    env.bind(id, daemons.back().get());
  }
  for (std::size_t i = 0; i < kDaemons; ++i) {
    env.run_on_lane(env.lane_of(ids[i]), [&] { daemons[i]->start(); });
  }
  ASSERT_TRUE(poll_until([&] {
    for (std::size_t i = 0; i < kDaemons; ++i) {
      bool ok = false;
      env.run_on_lane(env.lane_of(ids[i]), [&] {
        ok = daemons[i]->is_operational() && daemons[i]->view_members().size() == kDaemons;
      });
      if (!ok) return false;
    }
    return true;
  })) << "daemons did not converge";

  auto on_lane = [&](std::size_t i, const std::function<void()>& fn) {
    env.run_on_lane(env.lane_of(ids[i]), fn);
  };
  on_lane(0, [&] {
    a = std::make_unique<SecureGroupClient>(*daemons[0], dir, 1);
    a->join(kGroup, cfg);
  });
  on_lane(1, [&] {
    b = std::make_unique<SecureGroupClient>(*daemons[1], dir, 2);
    b->join(kGroup, cfg);
  });
  ASSERT_TRUE(poll_until([&] {
    bool ak = false;
    bool bk = false;
    on_lane(0, [&] { ak = a->has_key(kGroup); });
    on_lane(1, [&] { bk = b->has_key(kGroup); });
    return ak && bk;
  })) << "initial pair never keyed";

  SecureGroupStats before;
  std::uint64_t epoch_before = 0;
  on_lane(0, [&] {
    before = a->group_stats(kGroup);
    epoch_before = a->key_epoch(kGroup);
  });

  // The storm: spaced just enough that the GCS delivers each change as its
  // own view (back-to-back changes the daemon folds itself leave nothing
  // for the secure layer to coalesce), yet all well inside the 2 s window.
  on_lane(2, [&] {
    c1 = std::make_unique<SecureGroupClient>(*daemons[2], dir, 3);
    c1->join(kGroup, cfg);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  on_lane(2, [&] {
    c2 = std::make_unique<SecureGroupClient>(*daemons[2], dir, 4);
    c2->join(kGroup, cfg);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  on_lane(1, [&] { b->leave(kGroup); });

  auto keys = [&]() -> std::vector<util::Bytes> {
    std::vector<util::Bytes> out(3);
    on_lane(0, [&] {
      try {
        if (a->has_key(kGroup)) out[0] = a->key_material(kGroup, 32);
      } catch (const std::logic_error&) {
      }
    });
    on_lane(2, [&] {
      try {
        if (c1->has_key(kGroup)) out[1] = c1->key_material(kGroup, 32);
        if (c2->has_key(kGroup)) out[2] = c2->key_material(kGroup, 32);
      } catch (const std::logic_error&) {
      }
    });
    return out;
  };
  ASSERT_TRUE(poll_until(
      [&] {
        bool epoch_moved = false;
        on_lane(0, [&] { epoch_moved = a->key_epoch(kGroup) > epoch_before; });
        if (!epoch_moved) return false;
        const std::vector<util::Bytes> k = keys();
        return !k[0].empty() && k[0] == k[1] && k[0] == k[2];
      },
      std::chrono::milliseconds(30'000)))
      << "storm batch never converged on one key";

  SecureGroupStats after;
  std::uint64_t epoch_after = 0;
  on_lane(0, [&] {
    after = a->group_stats(kGroup);
    epoch_after = a->key_epoch(kGroup);
  });
  // The exact same acceptance as the sim arm: one round, one epoch bump,
  // coalescing visible.
  EXPECT_EQ(after.rekeys - before.rekeys, 1u)
      << "a join+join+leave storm inside the window must cost one rekey round";
  EXPECT_EQ(epoch_after - epoch_before, 1u);
  EXPECT_GE(after.coalesced_views - before.coalesced_views, 1u);

  for (std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    on_lane(i, [&] {
      if (i == 0) a.reset();
      if (i == 1) b.reset();
      if (i == 2) {
        c1.reset();
        c2.reset();
      }
    });
  }
  for (std::size_t i = 0; i < kDaemons; ++i) {
    on_lane(i, [&] { daemons[i]->stop(); });
  }
  for (gcs::DaemonId id : ids) env.bind(id, nullptr);
}

INSTANTIATE_TEST_SUITE_P(Modules, BatchedStorm,
                         ::testing::Values("cliques", "ckd", "tgdh"));

}  // namespace
}  // namespace ss::secure
