// Unit tests for the key-agreement modules' event mapping (paper Table 1),
// exercised in isolation with an in-memory message bus: no GCS, no flush —
// pure role-selection and protocol-flow logic.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "bench/ka_bus.h"
#include "secure/ka_module.h"

namespace ss::secure {
namespace {

using crypto::DhGroup;
using gcs::MembershipReason;

/// The bus every case runs on: tiny64, group "bus".
struct Bus : bench::KaBus {
  explicit Bus(const std::string& ka_name) : KaBus(ka_name, DhGroup::tiny64(), "bus", 1000) {}
};

class KaModuleParam : public ::testing::TestWithParam<const char*> {};

TEST_P(KaModuleParam, SingletonKeysImmediately) {
  Bus bus(GetParam());
  bus.add_member(1);
  const int ready = bus.deliver_view(bus.make_view({1}, MembershipReason::kJoin, {1}, {}));
  EXPECT_EQ(ready, 1);
  ASSERT_EQ(bus.agreement_failure(), "");
}

TEST_P(KaModuleParam, JoinMapsToJoinOperation) {
  Bus bus(GetParam());
  bus.add_member(1);
  bus.deliver_view(bus.make_view({1}, MembershipReason::kJoin, {1}, {}));
  bus.add_member(2);
  bus.deliver_view(bus.make_view({1, 2}, MembershipReason::kJoin, {2}, {}));
  ASSERT_EQ(bus.agreement_failure(), "");
}

TEST_P(KaModuleParam, SequentialJoinsStayAgreed) {
  Bus bus(GetParam());
  bus.add_member(1);
  bus.deliver_view(bus.make_view({1}, MembershipReason::kJoin, {1}, {}));
  std::vector<std::uint32_t> members = {1};
  for (std::uint32_t i = 2; i <= 6; ++i) {
    bus.add_member(i);
    members.push_back(i);
    bus.deliver_view(bus.make_view(members, MembershipReason::kJoin, {i}, {}));
    ASSERT_EQ(bus.agreement_failure(), "");
  }
}

TEST_P(KaModuleParam, LeaveMapsToLeaveOperation) {
  Bus bus(GetParam());
  bus.add_member(1);
  bus.deliver_view(bus.make_view({1}, MembershipReason::kJoin, {1}, {}));
  for (std::uint32_t i = 2; i <= 4; ++i) {
    bus.add_member(i);
    std::vector<std::uint32_t> m;
    for (std::uint32_t j = 1; j <= i; ++j) m.push_back(j);
    bus.deliver_view(bus.make_view(m, MembershipReason::kJoin, {i}, {}));
  }
  const util::Bytes before = bus.module(1).session_key(16);
  bus.remove_member(2);
  bus.deliver_view(bus.make_view({1, 3, 4}, MembershipReason::kLeave, {}, {2}));
  ASSERT_EQ(bus.agreement_failure(), "");
  EXPECT_NE(bus.module(1).session_key(16), before);
}

TEST_P(KaModuleParam, DisconnectMapsToLeave) {
  Bus bus(GetParam());
  bus.add_member(1);
  bus.deliver_view(bus.make_view({1}, MembershipReason::kJoin, {1}, {}));
  bus.add_member(2);
  bus.deliver_view(bus.make_view({1, 2}, MembershipReason::kJoin, {2}, {}));
  bus.remove_member(2);
  bus.deliver_view(bus.make_view({1}, MembershipReason::kDisconnect, {}, {2}));
  ASSERT_EQ(bus.agreement_failure(), "");
}

TEST_P(KaModuleParam, PartitionMapsToLeave) {
  Bus bus(GetParam());
  bus.add_member(1);
  bus.deliver_view(bus.make_view({1}, MembershipReason::kJoin, {1}, {}));
  for (std::uint32_t i = 2; i <= 5; ++i) {
    bus.add_member(i);
    std::vector<std::uint32_t> m;
    for (std::uint32_t j = 1; j <= i; ++j) m.push_back(j);
    bus.deliver_view(bus.make_view(m, MembershipReason::kJoin, {i}, {}));
  }
  // Members 4,5 partitioned away (including the Cliques controller 5).
  bus.remove_member(4);
  bus.remove_member(5);
  bus.deliver_view(bus.make_view({1, 2, 3}, MembershipReason::kNetwork, {}, {4, 5}));
  ASSERT_EQ(bus.agreement_failure(), "");
}

TEST_P(KaModuleParam, RefreshFromControllerRekeys) {
  Bus bus(GetParam());
  bus.add_member(1);
  bus.deliver_view(bus.make_view({1}, MembershipReason::kJoin, {1}, {}));
  bus.add_member(2);
  bus.deliver_view(bus.make_view({1, 2}, MembershipReason::kJoin, {2}, {}));
  const util::Bytes before = bus.module(1).session_key(16);
  // Ask every member; exactly the controller acts, others forward.
  bus.request_refresh_all();
  ASSERT_EQ(bus.agreement_failure(), "");
  EXPECT_NE(bus.module(1).session_key(16), before);
}

TEST_P(KaModuleParam, LeaveThenRejoinRestartsKey) {
  Bus bus(GetParam());
  bus.add_member(1);
  bus.deliver_view(bus.make_view({1}, MembershipReason::kJoin, {1}, {}));
  bus.add_member(2);
  bus.deliver_view(bus.make_view({1, 2}, MembershipReason::kJoin, {2}, {}));
  bus.add_member(3);
  bus.deliver_view(bus.make_view({1, 2, 3}, MembershipReason::kJoin, {3}, {}));
  ASSERT_EQ(bus.agreement_failure(), "");
  const util::Bytes with_three = bus.module(1).session_key(16);

  // Member 2 leaves, then rejoins with a FRESH module instance (a real
  // rejoiner restarts its key epoch — no state survives the leave).
  bus.remove_member(2);
  bus.deliver_view(bus.make_view({1, 3}, MembershipReason::kLeave, {}, {2}));
  ASSERT_EQ(bus.agreement_failure(), "");
  const util::Bytes without_two = bus.module(1).session_key(16);
  EXPECT_NE(without_two, with_three) << "leave must rotate the key";

  bus.add_member(2);
  bus.deliver_view(bus.make_view({1, 3, 2}, MembershipReason::kJoin, {2}, {}));
  ASSERT_EQ(bus.agreement_failure(), "");
  const util::Bytes rejoined = bus.module(1).session_key(16);
  EXPECT_NE(rejoined, without_two) << "rejoin must rotate the key";
  EXPECT_NE(rejoined, with_three) << "the rejoined group must not resurrect the old key";
}

INSTANTIATE_TEST_SUITE_P(Modules, KaModuleParam,
                         ::testing::Values("cliques", "ckd", "tgdh"));

// Trace span names: every protocol message type must map to its own stable
// phase label (dashboards and transcript diffs key on them), and unknown
// types must fall back to the generic label rather than crash or collide.
TEST(KaPhaseNames, EveryMsgTypeHasADistinctStableName) {
  std::set<std::string> seen;
  for (const KaMsgType t : kAllKaMsgTypes) {
    const std::string name = ka_phase_name(static_cast<std::int16_t>(t));
    EXPECT_NE(name, "ka.message") << "unnamed protocol type " << static_cast<int>(t);
    EXPECT_TRUE(name.rfind("ka.", 0) == 0) << name << " must live in the ka. namespace";
    EXPECT_TRUE(seen.insert(name).second) << name << " is claimed by two message types";
  }
  EXPECT_EQ(seen.size(), std::size(kAllKaMsgTypes));
  EXPECT_STREQ(ka_phase_name(0), "ka.message");
  EXPECT_STREQ(ka_phase_name(12345), "ka.message");
}

// The registry itself: each module name resolves, and the phase-name table
// covers the types the registered modules can emit.
TEST(KaPhaseNames, RegistryKnowsAllThreeModules) {
  const std::vector<std::string> names = KaRegistry::instance().names();
  for (const char* want : {"cliques", "ckd", "tgdh"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end()) << want;
  }
}

TEST(CliquesModuleOnly, MergeOfTwoKeyedSides) {
  // Two components that were keyed independently heal: the side holding
  // the oldest member initiates; everyone lands on one key.
  Bus bus("cliques");
  for (std::uint32_t i = 1; i <= 4; ++i) bus.add_member(i);
  // Side A = {1,2} builds up.
  bus.deliver_view(bus.make_view({1}, MembershipReason::kJoin, {1}, {}));
  bus.deliver_view(bus.make_view({1, 2}, MembershipReason::kJoin, {2}, {}));
  // Side B = {3,4}: simulate by giving them their own views.
  // (The bus delivers views to all modules; members not in the view ignore
  //  messages since multicasts only reach view members.)
  bus.deliver_view(bus.make_view({3}, MembershipReason::kJoin, {3}, {}));
  bus.deliver_view(bus.make_view({3, 4}, MembershipReason::kJoin, {4}, {}));
  // Heal: one view with everyone; 3,4 appear as joined to side A and vice
  // versa — the bus approximates with joined = {3,4} (side A's view), which
  // is what the initiating side sees.
  bus.deliver_view(bus.make_view({1, 2, 3, 4}, MembershipReason::kNetwork, {3, 4}, {}));
  ASSERT_EQ(bus.agreement_failure(), "");
}

TEST(CliquesModuleOnly, ControllerLossRecovery) {
  Bus bus("cliques");
  bus.add_member(1);
  bus.deliver_view(bus.make_view({1}, MembershipReason::kJoin, {1}, {}));
  for (std::uint32_t i = 2; i <= 4; ++i) {
    bus.add_member(i);
    std::vector<std::uint32_t> m;
    for (std::uint32_t j = 1; j <= i; ++j) m.push_back(j);
    bus.deliver_view(bus.make_view(m, MembershipReason::kJoin, {i}, {}));
  }
  // Lose controller 4 AND member 3 at once (double failure).
  bus.remove_member(4);
  bus.remove_member(3);
  bus.deliver_view(bus.make_view({1, 2}, MembershipReason::kNetwork, {}, {3, 4}));
  ASSERT_EQ(bus.agreement_failure(), "");
}

}  // namespace
}  // namespace ss::secure
