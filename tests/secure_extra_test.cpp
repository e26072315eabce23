// Additional secure-layer coverage: automatic key refresh, stats counters,
// epoch windows, larger groups, and cross-module interactions.
#include <gtest/gtest.h>

#include "secure/secure_client.h"
#include "tests/cluster_fixture.h"

namespace ss::secure {
namespace {

using crypto::DhGroup;
using gcs::GroupName;
using testing::Cluster;
using util::bytes_of;
using util::string_of;

class SecureExtra : public ::testing::Test {
 protected:
  SecureExtra() : c(3), dir(DhGroup::tiny64()) { EXPECT_TRUE(c.converge(3)); }

  SecureGroupConfig cfg(const std::string& ka = "cliques") {
    SecureGroupConfig out;
    out.ka_module = ka;
    out.dh = &DhGroup::tiny64();
    return out;
  }

  Cluster c;
  cliques::KeyDirectory dir;
};

TEST_F(SecureExtra, AutoRefreshRotatesKeys) {
  SecureGroupClient a(*c.daemons[0], dir, 1);
  SecureGroupClient b(*c.daemons[1], dir, 2);
  SecureGroupConfig config = cfg();
  config.auto_refresh_interval = 200 * sim::kMillisecond;  // only a refreshes
  a.join("g", config);
  b.join("g", cfg());
  ASSERT_TRUE(c.run_until([&] { return a.has_key("g") && b.has_key("g"); }, 5 * sim::kSecond));
  const util::Bytes k0 = a.key_material("g", 16);
  c.run_for(1500 * sim::kMillisecond);  // several refresh periods
  EXPECT_GE(a.group_stats("g").auto_refreshes, 3u);
  EXPECT_NE(a.key_material("g", 16), k0);
  // Both still agree after rotation.
  EXPECT_EQ(a.key_material("g", 16), b.key_material("g", 16));
}

TEST_F(SecureExtra, AutoRefreshStopsOnLeave) {
  SecureGroupClient a(*c.daemons[0], dir, 1);
  SecureGroupConfig config = cfg();
  config.auto_refresh_interval = 100 * sim::kMillisecond;
  a.join("g", config);
  ASSERT_TRUE(c.run_until([&] { return a.has_key("g"); }, sim::kSecond));
  a.leave("g");
  ASSERT_TRUE(c.run_until([&] { return a.current_view("g") == nullptr; }, sim::kSecond));
  // No pending timers firing on a departed group (would throw/log).
  c.run_for(sim::kSecond);
  EXPECT_FALSE(a.has_key("g"));
}

TEST_F(SecureExtra, StatsCountersTrackDataPath) {
  SecureGroupClient a(*c.daemons[0], dir, 1);
  SecureGroupClient b(*c.daemons[1], dir, 2);
  a.join("g", cfg());
  b.join("g", cfg());
  ASSERT_TRUE(c.run_until([&] { return a.has_key("g") && b.has_key("g"); }, 5 * sim::kSecond));
  int got = 0;
  b.on_message([&](const SecureMessage&) { ++got; });
  for (int i = 0; i < 5; ++i) a.send("g", bytes_of("m"));
  ASSERT_TRUE(c.run_until([&] { return got == 5; }, 5 * sim::kSecond));
  EXPECT_EQ(a.group_stats("g").sealed, 5u);
  EXPECT_EQ(b.group_stats("g").opened, 5u);
  EXPECT_GE(a.group_stats("g").rekeys, 1u);
  EXPECT_EQ(b.group_stats("g").dropped_unauthentic, 0u);
}

TEST_F(SecureExtra, LargerGroupAcrossDaemons) {
  std::vector<std::unique_ptr<SecureGroupClient>> members;
  for (int i = 0; i < 9; ++i) {
    members.push_back(std::make_unique<SecureGroupClient>(
        *c.daemons[static_cast<std::size_t>(i) % 3], dir, 100 + static_cast<std::uint64_t>(i)));
    members.back()->join("big", cfg());
  }
  ASSERT_TRUE(c.run_until(
      [&] {
        for (auto& m : members) {
          const auto* v = m->current_view("big");
          if (v == nullptr || v->members.size() != 9 || !m->has_key("big")) return false;
        }
        return true;
      },
      30 * sim::kSecond));
  const util::Bytes ref = members[0]->key_material("big", 16);
  for (auto& m : members) EXPECT_EQ(m->key_material("big", 16), ref);
}

TEST_F(SecureExtra, TwoGroupsIndependentEpochs) {
  SecureGroupClient a(*c.daemons[0], dir, 1);
  SecureGroupClient b(*c.daemons[1], dir, 2);
  a.join("g1", cfg());
  b.join("g1", cfg());
  a.join("g2", cfg("ckd"));
  b.join("g2", cfg("ckd"));
  ASSERT_TRUE(c.run_until(
      [&] {
        return a.has_key("g1") && b.has_key("g1") && a.has_key("g2") && b.has_key("g2");
      },
      10 * sim::kSecond));
  const util::Bytes g2_key = a.key_material("g2", 16);
  // Refresh g1 only; g2's key must be untouched.
  b.refresh_key("g1");
  c.run_for(500 * sim::kMillisecond);
  EXPECT_EQ(a.key_material("g2", 16), g2_key);
}

TEST_F(SecureExtra, GhostFreeMergeAfterLeaveInPartition) {
  // Regression for the ghost-member bug: a member leaves while partitioned;
  // after the heal its entry must NOT be resurrected by the table merge.
  SecureGroupClient a(*c.daemons[0], dir, 1);
  SecureGroupClient b(*c.daemons[1], dir, 2);
  SecureGroupClient d(*c.daemons[2], dir, 3);
  a.join("g", cfg());
  b.join("g", cfg());
  d.join("g", cfg());
  ASSERT_TRUE(c.run_until(
      [&] { return a.has_key("g") && b.has_key("g") && d.has_key("g"); }, 10 * sim::kSecond));
  c.net.partition({{0}, {1, 2}});
  ASSERT_TRUE(c.run_until(
      [&] {
        const auto* v = b.current_view("g");
        return v != nullptr && v->members.size() == 2 && b.has_key("g");
      },
      10 * sim::kSecond));
  // b leaves inside the majority partition.
  b.leave("g");
  ASSERT_TRUE(c.run_until(
      [&] {
        const auto* v = d.current_view("g");
        return v != nullptr && v->members.size() == 1 && d.has_key("g");
      },
      10 * sim::kSecond));
  c.net.heal();
  // Merge must converge on exactly {a, d}: no ghost b blocking the flush.
  ASSERT_TRUE(c.run_until(
      [&] {
        const auto* va = a.current_view("g");
        const auto* vd = d.current_view("g");
        return va != nullptr && va->members.size() == 2 && a.has_key("g") && vd != nullptr &&
               vd->members.size() == 2 && d.has_key("g");
      },
      20 * sim::kSecond));
  EXPECT_FALSE(a.current_view("g")->contains(b.id()));
  EXPECT_EQ(a.key_material("g", 16), d.key_material("g", 16));
}

TEST_F(SecureExtra, RejoinAfterLeaveGetsFreshState) {
  SecureGroupClient a(*c.daemons[0], dir, 1);
  SecureGroupClient b(*c.daemons[1], dir, 2);
  a.join("g", cfg());
  b.join("g", cfg());
  ASSERT_TRUE(c.run_until([&] { return a.has_key("g") && b.has_key("g"); }, 5 * sim::kSecond));
  b.leave("g");
  ASSERT_TRUE(c.run_until([&] { return b.current_view("g") == nullptr; }, 5 * sim::kSecond));
  b.join("g", cfg());
  ASSERT_TRUE(c.run_until(
      [&] {
        const auto* v = b.current_view("g");
        return v != nullptr && v->members.size() == 2 && b.has_key("g") && a.has_key("g");
      },
      10 * sim::kSecond));
  EXPECT_EQ(a.key_material("g", 16), b.key_material("g", 16));
}

TEST_F(SecureExtra, LeaveThenImmediateRejoinEndsKeyed) {
  // The rejoin races the self-leave view of the incarnation that left: that
  // view must end only the old incarnation, not the one join() just made.
  for (const std::string ka : {"cliques", "ckd", "tgdh"}) {
    SCOPED_TRACE(ka);
    const GroupName g = "rejoin-" + ka;
    SecureGroupClient a(*c.daemons[0], dir, 1);
    SecureGroupClient b(*c.daemons[1], dir, 2);
    a.join(g, cfg(ka));
    b.join(g, cfg(ka));
    ASSERT_TRUE(c.run_until([&] { return a.has_key(g) && b.has_key(g); }, 5 * sim::kSecond));
    b.leave(g);
    b.join(g, cfg(ka));
    ASSERT_TRUE(c.run_until(
        [&] {
          const auto* v = b.current_view(g);
          return v != nullptr && v->members.size() == 2 && a.has_key(g) && b.has_key(g);
        },
        10 * sim::kSecond));
    EXPECT_EQ(a.key_material(g, 16), b.key_material(g, 16));
  }
}

TEST_F(SecureExtra, RepeatedJoinKeepsLiveState) {
  SecureGroupClient a(*c.daemons[0], dir, 1);
  SecureGroupClient b(*c.daemons[1], dir, 2);
  SecureGroupConfig config = cfg();
  config.auto_refresh_interval = 100 * sim::kMillisecond;
  a.join("g", config);
  b.join("g", cfg());
  ASSERT_TRUE(c.run_until([&] { return a.has_key("g") && b.has_key("g"); }, 5 * sim::kSecond));
  // The daemon ignores a duplicate join, so no view would rebuild state a
  // second join threw away.
  a.join("g", config);
  const std::uint64_t refreshes = a.group_stats("g").auto_refreshes;
  c.run_for(sim::kSecond);
  // One refresh timer chain: at most one refresh per 100 ms.
  EXPECT_LE(a.group_stats("g").auto_refreshes - refreshes, 11u);
  ASSERT_TRUE(c.run_until(
      [&] {
        return a.has_key("g") && b.has_key("g") &&
               a.key_material("g", 16) == b.key_material("g", 16);
      },
      sim::kSecond));
}

// charge_crypto_time: the completion of each key-agreement call charges the
// call's measured CPU time into the sim clock. A singleton group keys, and
// refreshes, within one event, so each rekey's virtual duration is exactly
// the CPU it reports when charging is on, and zero when it is off. (Across
// members the sim clock gives no such bound: an event queued before a
// charge still runs at its own, earlier time.)
TEST_F(SecureExtra, ChargedCryptoTimeCoversRekeyCpu) {
  cliques::KeyDirectory ss512_dir(DhGroup::ss512());
  SecureGroupClient charged(*c.daemons[0], ss512_dir, 1, /*charge_crypto_time=*/true);
  SecureGroupClient uncharged(*c.daemons[1], ss512_dir, 2, /*charge_crypto_time=*/false);
  SecureGroupConfig config = cfg();
  config.dh = &DhGroup::ss512();
  charged.join("g", config);
  uncharged.join("h", config);
  ASSERT_TRUE(c.run_until([&] { return charged.has_key("g") && uncharged.has_key("h"); },
                          5 * sim::kSecond));
  auto check = [&](const SecureGroupClient& m, const GroupName& group, bool charging,
                   std::uint64_t epoch) {
    const std::optional<RekeyStats>& r = m.last_rekey(group);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->epoch, epoch);
    EXPECT_GT(r->cpu_seconds, 0.0);
    const double elapsed_us = static_cast<double>(r->completed_at - r->started_at);
    EXPECT_NEAR(elapsed_us, charging ? r->cpu_seconds * 1e6 : 0.0, 1.0);
  };
  check(charged, "g", true, 1);
  check(uncharged, "h", false, 1);
  charged.refresh_key("g");
  uncharged.refresh_key("h");
  check(charged, "g", true, 2);
  check(uncharged, "h", false, 2);
}

TEST_F(SecureExtra, UnknownGroupOperationsAreSafe) {
  SecureGroupClient a(*c.daemons[0], dir, 1);
  EXPECT_THROW(a.send("nope", bytes_of("x")), std::logic_error);
  EXPECT_NO_THROW(a.refresh_key("nope"));
  EXPECT_FALSE(a.has_key("nope"));
  EXPECT_EQ(a.key_epoch("nope"), 0u);
  EXPECT_EQ(a.current_view("nope"), nullptr);
  EXPECT_THROW(a.key_material("nope", 16), std::logic_error);
}

}  // namespace
}  // namespace ss::secure
