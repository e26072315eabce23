// Tests for the daemon-model group key (paper Sections 5 / 8): daemons
// agree on a shared key per daemon view, rekey only on daemon membership
// changes, and client-group churn does NOT touch it.
#include "gcs/daemon_key.h"

#include <gtest/gtest.h>

#include "secure/secure_client.h"
#include "tests/cluster_fixture.h"

namespace ss::gcs {
namespace {

using crypto::DhGroup;
using util::bytes_of;

struct KeyedStack {
  explicit KeyedStack(std::size_t n) : net(sched, 33), store(DhGroup::ss256()) {
    std::vector<DaemonId> ids;
    for (std::size_t i = 0; i < n; ++i) ids.push_back(static_cast<DaemonId>(i));
    for (DaemonId id : ids) {
      daemons.push_back(std::make_unique<Daemon>(ss::runtime::Env{&sched, &net, id}, ids, TimingConfig{}, 90 + id,
                                                 &store));
      net.add_node(daemons.back().get());
    }
    for (auto& d : daemons) d->start();
  }

  bool keyed(std::size_t members) {
    return sched.run_until_condition(
        [&] {
          util::Bytes ref;
          for (auto& d : daemons) {
            if (!d->running()) continue;
            if (!d->is_operational() || d->view_members().size() != members) return false;
            const util::Bytes k = d->daemon_group_key();
            if (k.empty()) return false;
            if (ref.empty()) {
              ref = k;
            } else if (k != ref) {
              return false;
            }
          }
          return true;
        },
        sched.now() + 10 * sim::kSecond);
  }

  sim::Scheduler sched;
  sim::SimNetwork net;
  DaemonKeyStore store;
  std::vector<std::unique_ptr<Daemon>> daemons;
};

TEST(DaemonKey, AllDaemonsShareOneKeyPerView) {
  KeyedStack s(3);
  ASSERT_TRUE(s.keyed(3));
  EXPECT_EQ(s.daemons[0]->daemon_group_key(), s.daemons[2]->daemon_group_key());
  EXPECT_EQ(s.daemons[0]->daemon_group_key().size(), 32u);
}

TEST(DaemonKey, RekeysOnDaemonMembershipChange) {
  KeyedStack s(3);
  ASSERT_TRUE(s.keyed(3));
  const util::Bytes before = s.daemons[0]->daemon_group_key();
  s.daemons[2]->crash();
  ASSERT_TRUE(s.keyed(2));
  EXPECT_NE(s.daemons[0]->daemon_group_key(), before);
  // The crashed daemon recovers: fresh view, fresh key, all agree again.
  s.net.recover(2);
  s.daemons[2]->start();
  ASSERT_TRUE(s.keyed(3));
  EXPECT_EQ(s.daemons[0]->daemon_group_key(), s.daemons[2]->daemon_group_key());
}

TEST(DaemonKey, PartitionGivesEachSideItsOwnKey) {
  KeyedStack s(4);
  ASSERT_TRUE(s.keyed(4));
  s.net.partition({{0, 1}, {2, 3}});
  ASSERT_TRUE(s.sched.run_until_condition(
      [&] {
        for (auto& d : s.daemons) {
          if (d->view_members().size() != 2 || d->daemon_group_key().empty()) return false;
        }
        // Both sides fully keyed (each side internally consistent).
        return s.daemons[0]->daemon_group_key() == s.daemons[1]->daemon_group_key() &&
               s.daemons[2]->daemon_group_key() == s.daemons[3]->daemon_group_key();
      },
      s.sched.now() + 10 * sim::kSecond));
  EXPECT_EQ(s.daemons[0]->daemon_group_key(), s.daemons[1]->daemon_group_key());
  EXPECT_EQ(s.daemons[2]->daemon_group_key(), s.daemons[3]->daemon_group_key());
  EXPECT_NE(s.daemons[0]->daemon_group_key(), s.daemons[2]->daemon_group_key());
  s.net.heal();
  ASSERT_TRUE(s.keyed(4));
}

TEST(DaemonKey, ClientChurnDoesNotRekeyDaemons) {
  // The paper's daemon-model argument: client join/leave storms leave the
  // daemon key untouched.
  KeyedStack s(3);
  ASSERT_TRUE(s.keyed(3));
  const util::Bytes key = s.daemons[0]->daemon_group_key();
  const std::uint64_t rekeys = s.daemons[0]->daemon_rekeys();

  for (int round = 0; round < 5; ++round) {
    testing::RecordingClient a(*s.daemons[0]);
    testing::RecordingClient b(*s.daemons[1]);
    a.mbox().join("churny");
    b.mbox().join("churny");
    s.sched.run_for(50 * sim::kMillisecond);
    a.mbox().leave("churny");
    b.mbox().leave("churny");
    s.sched.run_for(50 * sim::kMillisecond);
  }
  EXPECT_EQ(s.daemons[0]->daemon_group_key(), key);
  EXPECT_EQ(s.daemons[0]->daemon_rekeys(), rekeys);
}

TEST(DaemonKey, DistCodecRoundTrip) {
  const ViewId view{42, 3};
  const util::Bytes sealed = bytes_of("sealed key bytes");
  const auto dist = util::decode<KeyDistMsg>(DaemonKeyAgent::encode_dist(view, sealed));
  EXPECT_EQ(dist.view, view);
  EXPECT_EQ(dist.sealed_key, sealed);
}

TEST(DaemonKey, NoKeyWithoutStore) {
  testing::Cluster c(2);
  ASSERT_TRUE(c.converge(2));
  EXPECT_TRUE(c.daemons[0]->daemon_group_key().empty());
  EXPECT_EQ(c.daemons[0]->daemon_rekeys(), 0u);
}

}  // namespace
}  // namespace ss::gcs
