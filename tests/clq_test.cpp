// Protocol tests for the Cliques (CLQ) group key agreement: key agreement
// across join/leave/merge/refresh, controller-failure handling, security
// properties (old members locked out, new members can't read back), and —
// central to the reproduction — exact serial-exponentiation counts against
// the paper's Tables 2-4.
#include "cliques/clq.h"

#include <gtest/gtest.h>

#include <memory>

#include "crypto/drbg.h"
#include "crypto/exp_counter.h"

namespace ss::cliques {
namespace {

using crypto::Bignum;
using crypto::DhGroup;
using crypto::exp_tally;
using crypto::ExpPurpose;
using crypto::ExpTally;
using crypto::HmacDrbg;
using crypto::reset_exp_tally;

MemberId mid(std::uint32_t i) { return MemberId{i, 1}; }

/// In-memory group of contexts with message plumbing. Accumulates per-role
/// tallies for the count assertions.
class ClqGroup {
 public:
  explicit ClqGroup(const DhGroup& dh = DhGroup::tiny64())
      : dh_(dh), dir_(dh), rnd_(77, "clq-test") {}

  ClqContext& ctx(const MemberId& m) { return *ctxs_.at(m); }
  const std::vector<MemberId>& members() const { return members_; }

  /// Founds the group with one member.
  void found(const MemberId& m) {
    // Long-term keys must exist in the directory before peers look them up.
    dir_.ensure(m, rnd_);
    ctxs_.emplace(m, std::make_unique<ClqContext>(dh_, dir_, m, rnd_));
    members_ = {m};
  }

  /// Runs a full JOIN; returns (controller tally, joiner tally).
  std::pair<ExpTally, ExpTally> join(const MemberId& joiner) {
    dir_.ensure(joiner, rnd_);
    auto joiner_ctx = std::make_unique<ClqContext>(dh_, dir_, joiner, rnd_);
    ClqContext& controller = ctx(members_.back());

    reset_exp_tally();
    const ClqHandoffMsg handoff = controller.join_handoff(joiner);
    const ExpTally controller_tally = exp_tally();

    std::vector<MemberId> final_members = members_;
    final_members.push_back(joiner);

    reset_exp_tally();
    const ClqBroadcastMsg bc = joiner_ctx->join_finalize(handoff, final_members);
    const ExpTally joiner_tally = exp_tally();

    ctxs_.emplace(joiner, std::move(joiner_ctx));
    for (const auto& m : members_) ctx(m).process_broadcast(bc, final_members);
    members_ = final_members;
    reset_exp_tally();
    return {controller_tally, joiner_tally};
  }

  /// Runs a LEAVE driven by the current controller; returns its tally.
  ExpTally leave(const std::vector<MemberId>& leavers) {
    std::vector<MemberId> remaining;
    for (const auto& m : members_) {
      bool leaving = std::find(leavers.begin(), leavers.end(), m) != leavers.end();
      if (leaving) {
        ctxs_.erase(m);
      } else {
        remaining.push_back(m);
      }
    }
    ClqContext& controller = ctx(remaining.back());
    reset_exp_tally();
    const ClqBroadcastMsg bc = controller.leave(leavers);
    const ExpTally tally = exp_tally();
    for (const auto& m : remaining) ctx(m).process_broadcast(bc, remaining);
    members_ = remaining;
    reset_exp_tally();
    return tally;
  }

  /// Runs a full MERGE of `new_members` (fresh singletons).
  void merge(const std::vector<MemberId>& new_members) {
    for (const auto& m : new_members) {
      dir_.ensure(m, rnd_);
      ctxs_.emplace(m, std::make_unique<ClqContext>(dh_, dir_, m, rnd_));
    }
    std::vector<MemberId> final_members = members_;
    for (const auto& m : new_members) final_members.push_back(m);

    ClqContext& controller = ctx(members_.back());
    ClqMergeChainMsg chain = controller.merge_begin(new_members);
    std::optional<ClqMergePartialMsg> partial;
    while (!partial) {
      auto [next, done] = ctx(chain.pending.front()).merge_chain(chain, final_members);
      if (done) {
        partial = done;
      } else {
        chain = *next;
      }
    }
    ClqContext& new_controller = ctx(partial->new_controller);
    std::optional<ClqBroadcastMsg> bc;
    for (const auto& m : final_members) {
      if (m == partial->new_controller) continue;
      const ClqFactorOutMsg fo = ctx(m).merge_factor_out(*partial, final_members);
      bc = new_controller.merge_collect(fo);
    }
    ASSERT_TRUE(bc.has_value());
    for (const auto& m : final_members) ctx(m).process_broadcast(*bc, final_members);
    members_ = final_members;
    reset_exp_tally();
  }

  /// All members hold the same non-trivial key.
  void assert_key_agreement() {
    ASSERT_FALSE(members_.empty());
    const Bignum& ref = ctx(members_.front()).raw_key();
    ASSERT_FALSE(ref.is_zero());
    for (const auto& m : members_) {
      ASSERT_EQ(ctx(m).raw_key(), ref) << "member " << m.to_string() << " disagrees";
      ASSERT_EQ(ctx(m).members(), members_);
    }
  }

  const DhGroup& dh_;
  KeyDirectory dir_;
  HmacDrbg rnd_;
  std::map<MemberId, std::unique_ptr<ClqContext>> ctxs_;
  std::vector<MemberId> members_;
};

TEST(ClqProtocol, TwoPartyJoinAgreesOnKey) {
  ClqGroup g;
  g.found(mid(1));
  g.join(mid(2));
  g.assert_key_agreement();
}

TEST(ClqProtocol, SequentialJoinsUpToEight) {
  ClqGroup g;
  g.found(mid(1));
  for (std::uint32_t i = 2; i <= 8; ++i) {
    g.join(mid(i));
    g.assert_key_agreement();
  }
  // Controller is the newest member.
  EXPECT_EQ(g.ctx(mid(3)).controller(), mid(8));
}

TEST(ClqProtocol, KeyChangesOnEveryJoin) {
  ClqGroup g;
  g.found(mid(1));
  g.join(mid(2));
  const Bignum k2 = g.ctx(mid(1)).raw_key();
  g.join(mid(3));
  const Bignum k3 = g.ctx(mid(1)).raw_key();
  EXPECT_NE(k2, k3);
}

TEST(ClqProtocol, LeaveProducesNewAgreedKey) {
  ClqGroup g;
  g.found(mid(1));
  for (std::uint32_t i = 2; i <= 5; ++i) g.join(mid(i));
  const Bignum before = g.ctx(mid(1)).raw_key();
  g.leave({mid(3)});
  g.assert_key_agreement();
  EXPECT_NE(g.ctx(mid(1)).raw_key(), before);
}

TEST(ClqProtocol, ControllerLeaveHandledByPredecessor) {
  // The controller (newest member) vanishes; the previous joiner takes over
  // using its stored broadcast set with the inherited blinding chain.
  ClqGroup g;
  g.found(mid(1));
  for (std::uint32_t i = 2; i <= 5; ++i) g.join(mid(i));
  g.leave({mid(5)});  // mid(4) becomes controller
  g.assert_key_agreement();
  EXPECT_EQ(g.ctx(mid(1)).controller(), mid(4));
  // And the new controller can keep operating (another leave).
  g.leave({mid(2)});
  g.assert_key_agreement();
}

TEST(ClqProtocol, CascadedControllerLeaves) {
  ClqGroup g;
  g.found(mid(1));
  for (std::uint32_t i = 2; i <= 6; ++i) g.join(mid(i));
  g.leave({mid(6)});
  g.leave({mid(5)});
  g.leave({mid(4)});
  g.assert_key_agreement();
  EXPECT_EQ(g.members().size(), 3u);
}

TEST(ClqProtocol, MultiLeave) {
  ClqGroup g;
  g.found(mid(1));
  for (std::uint32_t i = 2; i <= 6; ++i) g.join(mid(i));
  g.leave({mid(2), mid(3), mid(6)});
  g.assert_key_agreement();
  EXPECT_EQ(g.members().size(), 3u);
}

TEST(ClqProtocol, RefreshChangesKeyOnly) {
  ClqGroup g;
  g.found(mid(1));
  g.join(mid(2));
  g.join(mid(3));
  const Bignum before = g.ctx(mid(1)).raw_key();
  const auto members_before = g.members();
  // The controller (newest member) refreshes unilaterally.
  const ClqBroadcastMsg bc = g.ctx(mid(3)).refresh();
  for (const auto& m : g.members()) g.ctx(m).process_broadcast(bc, g.members());
  g.assert_key_agreement();
  EXPECT_NE(g.ctx(mid(2)).raw_key(), before);
  EXPECT_EQ(g.members(), members_before);
}

TEST(ClqProtocol, NonControllerRefreshRejected) {
  ClqGroup g;
  g.found(mid(1));
  g.join(mid(2));
  g.join(mid(3));
  // mid(1) lacks a partial for the current controller mid(3): it must not
  // be able to issue a broadcast (it would lock mid(3) out).
  EXPECT_THROW(g.ctx(mid(1)).refresh(), std::logic_error);
}

TEST(ClqProtocol, MergeSingleNewMember) {
  ClqGroup g;
  g.found(mid(1));
  g.join(mid(2));
  g.merge({mid(3)});
  g.assert_key_agreement();
  EXPECT_EQ(g.ctx(mid(1)).controller(), mid(3));
}

TEST(ClqProtocol, MergeMultipleNewMembers) {
  ClqGroup g;
  g.found(mid(1));
  g.join(mid(2));
  g.merge({mid(3), mid(4), mid(5)});
  g.assert_key_agreement();
  EXPECT_EQ(g.members().size(), 5u);
  EXPECT_EQ(g.ctx(mid(1)).controller(), mid(5));
  // Group remains operable after a merge.
  g.join(mid(6));
  g.leave({mid(4)});
  g.assert_key_agreement();
}

TEST(ClqProtocol, MergeAfterControllerLoss) {
  // Partition heals: survivors merge returning members. The surviving
  // controller may be any member; merge works from arbitrary stored state.
  ClqGroup g;
  g.found(mid(1));
  for (std::uint32_t i = 2; i <= 4; ++i) g.join(mid(i));
  g.leave({mid(4)});  // controller lost
  g.merge({mid(7), mid(8)});
  g.assert_key_agreement();
}

TEST(ClqProtocol, SessionKeyDerivation) {
  ClqGroup g;
  g.found(mid(1));
  g.join(mid(2));
  const auto k1 = g.ctx(mid(1)).session_key(16);
  const auto k2 = g.ctx(mid(2)).session_key(16);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(k1.size(), 16u);
  g.join(mid(3));
  EXPECT_NE(g.ctx(mid(1)).session_key(16), k1);  // epoch change
}

TEST(ClqProtocol, LeaverCannotComputeNewKey) {
  ClqGroup g;
  g.found(mid(1));
  for (std::uint32_t i = 2; i <= 4; ++i) g.join(mid(i));
  // Snapshot the leaver's context before eviction.
  const Bignum leaver_old_key = g.ctx(mid(2)).raw_key();
  g.leave({mid(2)});
  g.assert_key_agreement();
  EXPECT_NE(g.ctx(mid(1)).raw_key(), leaver_old_key);
}

TEST(ClqProtocol, JoinerCannotComputeOldKey) {
  ClqGroup g;
  g.found(mid(1));
  g.join(mid(2));
  const Bignum old_key = g.ctx(mid(1)).raw_key();
  g.join(mid(3));
  EXPECT_NE(g.ctx(mid(3)).raw_key(), old_key);
}

TEST(ClqProtocol, RejectsInvalidElements) {
  ClqGroup g;
  g.found(mid(1));
  g.join(mid(2));
  ClqBroadcastMsg bogus;
  bogus.controller = mid(2);
  bogus.entries.push_back(ClqEntry{mid(1), {mid(2)}, Bignum(1)});  // order-1 element
  EXPECT_THROW(g.ctx(mid(1)).process_broadcast(bogus, g.members()), std::runtime_error);
}

TEST(ClqProtocol, BroadcastWithoutMyEntryRejected) {
  ClqGroup g;
  g.found(mid(1));
  g.join(mid(2));
  ClqBroadcastMsg bogus;
  bogus.controller = mid(2);
  EXPECT_THROW(g.ctx(mid(1)).process_broadcast(bogus, g.members()), std::runtime_error);
}

TEST(ClqProtocol, OnlyControllerMayHandOff) {
  ClqGroup g;
  g.found(mid(1));
  g.join(mid(2));
  EXPECT_THROW(g.ctx(mid(1)).join_handoff(mid(9)), std::logic_error);
}

TEST(ClqProtocol, MessageCodecsRoundTrip) {
  ClqGroup g;
  g.found(mid(1));
  ClqContext& c = g.ctx(mid(1));
  g.dir_.ensure(mid(2), g.rnd_);
  const ClqHandoffMsg handoff = c.join_handoff(mid(2));
  const auto decoded = util::decode<ClqHandoffMsg>(handoff.encode());
  EXPECT_EQ(decoded.old_controller, handoff.old_controller);
  EXPECT_EQ(decoded.new_member, handoff.new_member);
  ASSERT_EQ(decoded.partials.size(), handoff.partials.size());
  for (std::size_t i = 0; i < decoded.partials.size(); ++i) {
    EXPECT_EQ(decoded.partials[i].member, handoff.partials[i].member);
    EXPECT_EQ(decoded.partials[i].chain, handoff.partials[i].chain);
    EXPECT_EQ(decoded.partials[i].value, handoff.partials[i].value);
  }
  EXPECT_EQ(decoded.group_element, handoff.group_element);
}

// --- Exponentiation counts: the paper's Tables 2-4 --------------------------

class ClqCounts : public ::testing::TestWithParam<int> {};

TEST_P(ClqCounts, JoinMatchesTable2) {
  const std::uint64_t n = static_cast<std::uint64_t>(GetParam());  // size incl. joiner
  ClqGroup g;
  g.found(mid(1));
  std::pair<ExpTally, ExpTally> tallies;
  for (std::uint64_t i = 2; i <= n; ++i) tallies = g.join(mid(static_cast<std::uint32_t>(i)));
  const auto& [controller, joiner] = tallies;

  // Controller: update key share with every member (n-1), long term key
  // with new member (1), new session key computation (1). Total n+1.
  EXPECT_EQ(controller.count(ExpPurpose::kUpdateKeyShare), n - 1);
  EXPECT_EQ(controller.count(ExpPurpose::kLongTermKey), 1u);
  EXPECT_EQ(controller.count(ExpPurpose::kSessionKey), 1u);
  EXPECT_EQ(controller.total(), n + 1);

  // New member: long term keys (n-1), encryption of session key (n-1),
  // new session key computation (1). Total 2n-1.
  EXPECT_EQ(joiner.count(ExpPurpose::kLongTermKey), n - 1);
  EXPECT_EQ(joiner.count(ExpPurpose::kEncryptSessionKey), n - 1);
  EXPECT_EQ(joiner.count(ExpPurpose::kSessionKey), 1u);
  EXPECT_EQ(joiner.total(), 2 * n - 1);
}

TEST_P(ClqCounts, LeaveMatchesTable3) {
  const std::uint64_t n = static_cast<std::uint64_t>(GetParam());  // size incl. leaver
  ClqGroup g;
  g.found(mid(1));
  for (std::uint64_t i = 2; i <= n; ++i) g.join(mid(static_cast<std::uint32_t>(i)));
  // Remove a non-controller member (mid(1) is the oldest).
  const ExpTally tally = g.leave({mid(1)});

  // Remove long term key with previous controller (1), new session key (1),
  // encryption of session key (n-2). Total n.
  EXPECT_EQ(tally.count(ExpPurpose::kLongTermKey), 1u);
  EXPECT_EQ(tally.count(ExpPurpose::kSessionKey), 1u);
  EXPECT_EQ(tally.count(ExpPurpose::kEncryptSessionKey), n - 2);
  EXPECT_EQ(tally.total(), n);
}

TEST_P(ClqCounts, ControllerLeaveMatchesTable4) {
  const std::uint64_t n = static_cast<std::uint64_t>(GetParam());
  ClqGroup g;
  g.found(mid(1));
  for (std::uint64_t i = 2; i <= n; ++i) g.join(mid(static_cast<std::uint32_t>(i)));
  // The controller itself leaves: Table 4 says Cliques still pays n.
  const ExpTally tally = g.leave({mid(static_cast<std::uint32_t>(n))});
  EXPECT_EQ(tally.total(), n);
  g.assert_key_agreement();
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, ClqCounts, ::testing::Values(3, 4, 5, 8, 12));

}  // namespace
}  // namespace ss::cliques
