// Protocol tests for CKD (centralized key distribution, paper Appendix /
// Table 5), including the serial-exponentiation counts of Tables 2-4.
#include "ckd/ckd.h"

#include <gtest/gtest.h>

#include <memory>

#include "crypto/drbg.h"
#include "crypto/exp_counter.h"

namespace ss::ckd {
namespace {

using crypto::Bignum;
using crypto::DhGroup;
using crypto::exp_tally;
using crypto::ExpPurpose;
using crypto::ExpTally;
using crypto::HmacDrbg;
using crypto::reset_exp_tally;

MemberId mid(std::uint32_t i) { return MemberId{i, 1}; }

class CkdGroup {
 public:
  explicit CkdGroup(const DhGroup& dh = DhGroup::tiny64())
      : dh_(dh), dir_(dh), rnd_(99, "ckd-test") {}

  CkdContext& ctx(const MemberId& m) { return *ctxs_.at(m); }
  const std::vector<MemberId>& members() const { return members_; }
  CkdContext& controller() { return ctx(members_.front()); }

  void found(const MemberId& m) {
    dir_.ensure(m, rnd_);
    ctxs_.emplace(m, std::make_unique<CkdContext>(dh_, dir_, m, rnd_));
    members_ = {m};
  }

  /// Full join; returns (controller tally, joiner tally).
  std::pair<ExpTally, ExpTally> join(const MemberId& joiner) {
    dir_.ensure(joiner, rnd_);
    auto jc = std::make_unique<CkdContext>(dh_, dir_, joiner, rnd_);
    std::vector<MemberId> final_members = members_;
    final_members.push_back(joiner);

    reset_exp_tally();
    auto round1s = controller().pairwise_begin(final_members);
    ExpTally controller_tally = exp_tally();

    ExpTally joiner_tally{};
    for (const auto& [target, r1] : round1s) {
      reset_exp_tally();
      const CkdRound2Msg r2 = jc->pairwise_respond(r1);
      joiner_tally += exp_tally();
      reset_exp_tally();
      controller().pairwise_complete(r2);
      controller_tally += exp_tally();
    }
    reset_exp_tally();
    const CkdKeyDistMsg dist = controller().distribute(final_members);
    controller_tally += exp_tally();

    ctxs_.emplace(joiner, std::move(jc));
    for (const auto& m : final_members) {
      if (m == members_.front()) continue;
      if (m == joiner) {
        reset_exp_tally();
        ctx(m).process_key_dist(dist, final_members);
        joiner_tally += exp_tally();
      } else {
        ctx(m).process_key_dist(dist, final_members);
      }
    }
    members_ = final_members;
    reset_exp_tally();
    return {controller_tally, joiner_tally};
  }

  /// Leave of a non-controller member; returns controller tally.
  ExpTally leave(const MemberId& leaver) {
    std::vector<MemberId> remaining;
    for (const auto& m : members_) {
      if (m != leaver) remaining.push_back(m);
    }
    ctxs_.erase(leaver);
    controller().forget_pairwise(leaver);
    reset_exp_tally();
    const CkdKeyDistMsg dist = ctx(remaining.front()).distribute(remaining);
    const ExpTally tally = exp_tally();
    for (const auto& m : remaining) ctx(m).process_key_dist(dist, remaining);
    members_ = remaining;
    reset_exp_tally();
    return tally;
  }

  /// Leave of the controller: the successor re-establishes everything.
  ExpTally controller_leave() {
    const MemberId old = members_.front();
    std::vector<MemberId> remaining(members_.begin() + 1, members_.end());
    ctxs_.erase(old);
    CkdContext& nc = ctx(remaining.front());
    for (const auto& m : remaining) ctx(m).forget_pairwise(old);

    reset_exp_tally();
    auto round1s = nc.pairwise_begin(remaining);
    ExpTally tally = exp_tally();
    for (const auto& [target, r1] : round1s) {
      const CkdRound2Msg r2 = ctx(target).pairwise_respond(r1);
      reset_exp_tally();
      nc.pairwise_complete(r2);
      tally += exp_tally();
    }
    reset_exp_tally();
    const CkdKeyDistMsg dist = nc.distribute(remaining);
    tally += exp_tally();
    for (const auto& m : remaining) ctx(m).process_key_dist(dist, remaining);
    members_ = remaining;
    reset_exp_tally();
    return tally;
  }

  void assert_key_agreement() {
    const Bignum& ref = ctx(members_.front()).raw_key();
    ASSERT_FALSE(ref.is_zero());
    for (const auto& m : members_) {
      ASSERT_EQ(ctx(m).raw_key(), ref) << "member " << m.to_string() << " disagrees";
    }
  }

  const DhGroup& dh_;
  cliques::KeyDirectory dir_;
  HmacDrbg rnd_;
  std::map<MemberId, std::unique_ptr<CkdContext>> ctxs_;
  std::vector<MemberId> members_;
};

TEST(CkdProtocol, TwoPartyJoin) {
  CkdGroup g;
  g.found(mid(1));
  g.join(mid(2));
  g.assert_key_agreement();
}

TEST(CkdProtocol, SequentialJoins) {
  CkdGroup g;
  g.found(mid(1));
  for (std::uint32_t i = 2; i <= 6; ++i) {
    g.join(mid(i));
    g.assert_key_agreement();
  }
  // CKD controller is the oldest member.
  EXPECT_TRUE(g.ctx(mid(1)).is_controller());
  EXPECT_FALSE(g.ctx(mid(4)).is_controller());
}

TEST(CkdProtocol, KeyChangesPerEvent) {
  CkdGroup g;
  g.found(mid(1));
  g.join(mid(2));
  const Bignum k1 = g.ctx(mid(1)).raw_key();
  g.join(mid(3));
  const Bignum k2 = g.ctx(mid(1)).raw_key();
  EXPECT_NE(k1, k2);
  g.leave(mid(2));
  EXPECT_NE(g.ctx(mid(1)).raw_key(), k2);
  g.assert_key_agreement();
}

TEST(CkdProtocol, ControllerLeaveRecovers) {
  CkdGroup g;
  g.found(mid(1));
  for (std::uint32_t i = 2; i <= 5; ++i) g.join(mid(i));
  g.controller_leave();
  g.assert_key_agreement();
  EXPECT_TRUE(g.ctx(mid(2)).is_controller());
  // Survives follow-on operations.
  g.join(mid(9));
  g.assert_key_agreement();
}

TEST(CkdProtocol, SessionKeyDerivation) {
  CkdGroup g;
  g.found(mid(1));
  g.join(mid(2));
  EXPECT_EQ(g.ctx(mid(1)).session_key(16), g.ctx(mid(2)).session_key(16));
}

TEST(CkdProtocol, RejectsInvalidElements) {
  CkdGroup g;
  g.found(mid(1));
  g.join(mid(2));
  CkdRound1Msg bogus;
  bogus.controller = mid(1);
  bogus.value = Bignum(1);
  EXPECT_THROW(g.ctx(mid(2)).pairwise_respond(bogus), std::runtime_error);
}

TEST(CkdProtocol, DistributionWithoutPairwiseRejected) {
  CkdGroup g;
  g.found(mid(1));
  std::vector<MemberId> fake = {mid(1), mid(7)};
  EXPECT_THROW(g.ctx(mid(1)).distribute(fake), std::logic_error);
}

TEST(CkdProtocol, MessageCodecsRoundTrip) {
  CkdKeyDistMsg m;
  m.controller = mid(1);
  m.encrypted_keys.emplace_back(mid(2), Bignum::from_hex("deadbeef"));
  m.encrypted_keys.emplace_back(mid(3), Bignum::from_hex("cafe"));
  const auto d = util::decode<CkdKeyDistMsg>(m.encode());
  EXPECT_EQ(d.controller, m.controller);
  ASSERT_EQ(d.encrypted_keys.size(), 2u);
  EXPECT_EQ(d.encrypted_keys[1].second, Bignum::from_hex("cafe"));
}

// --- Exponentiation counts (Tables 2-4) -------------------------------------

class CkdCounts : public ::testing::TestWithParam<int> {};

TEST_P(CkdCounts, JoinMatchesTable2) {
  const std::uint64_t n = static_cast<std::uint64_t>(GetParam());
  CkdGroup g;
  g.found(mid(1));
  std::pair<ExpTally, ExpTally> tallies;
  for (std::uint64_t i = 2; i <= n; ++i) tallies = g.join(mid(static_cast<std::uint32_t>(i)));
  const auto& [controller, joiner] = tallies;

  // Controller: long-term key with new member (1), pairwise key with new
  // member (1), new session key (1), encryption of session key (n-1).
  // Total n+2.
  EXPECT_EQ(controller.count(ExpPurpose::kLongTermKey), 1u);
  EXPECT_EQ(controller.count(ExpPurpose::kPairwiseKey), 1u);
  EXPECT_EQ(controller.count(ExpPurpose::kSessionKey), 1u);
  EXPECT_EQ(controller.count(ExpPurpose::kEncryptSessionKey), n - 1);
  EXPECT_EQ(controller.total(), n + 2);

  // New member: long-term (1), pairwise (1), encryption of pairwise secret
  // (1), decryption of session key (1). Total 4 — independent of n.
  EXPECT_EQ(joiner.count(ExpPurpose::kLongTermKey), 1u);
  EXPECT_EQ(joiner.count(ExpPurpose::kPairwiseKey), 1u);
  EXPECT_EQ(joiner.count(ExpPurpose::kEncryptSessionKey), 1u);
  EXPECT_EQ(joiner.count(ExpPurpose::kDecryptSessionKey), 1u);
  EXPECT_EQ(joiner.total(), 4u);
}

TEST_P(CkdCounts, LeaveMatchesTable3) {
  const std::uint64_t n = static_cast<std::uint64_t>(GetParam());
  CkdGroup g;
  g.found(mid(1));
  for (std::uint64_t i = 2; i <= n; ++i) g.join(mid(static_cast<std::uint32_t>(i)));
  const ExpTally tally = g.leave(mid(3));
  // New session key (1) + encryption (n-2). Total n-1.
  EXPECT_EQ(tally.count(ExpPurpose::kSessionKey), 1u);
  EXPECT_EQ(tally.count(ExpPurpose::kEncryptSessionKey), n - 2);
  EXPECT_EQ(tally.total(), n - 1);
}

TEST_P(CkdCounts, ControllerLeaveMatchesTable3) {
  const std::uint64_t n = static_cast<std::uint64_t>(GetParam());
  CkdGroup g;
  g.found(mid(1));
  for (std::uint64_t i = 2; i <= n; ++i) g.join(mid(static_cast<std::uint32_t>(i)));
  const ExpTally tally = g.controller_leave();
  // Long-term (n-2), pairwise (n-2, plus the successor's one-time alpha^{r1}),
  // session (1), encryption (n-2). Paper total: 3n-5 (+1 one-time r1 setup).
  EXPECT_EQ(tally.count(ExpPurpose::kLongTermKey), n - 2);
  EXPECT_EQ(tally.count(ExpPurpose::kPairwiseKey), n - 2 + 1);
  EXPECT_EQ(tally.count(ExpPurpose::kSessionKey), 1u);
  EXPECT_EQ(tally.count(ExpPurpose::kEncryptSessionKey), n - 2);
  EXPECT_EQ(tally.total(), 3 * n - 5 + 1);
  g.assert_key_agreement();
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, CkdCounts, ::testing::Values(3, 4, 5, 8, 12));

}  // namespace
}  // namespace ss::ckd
