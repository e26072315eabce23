// Tests for Schnorr signatures and per-member sender authentication in the
// secure layer (paper Section 2, third security goal: authenticate a member
// by its secret contribution to the group key).
#include <gtest/gtest.h>

#include "crypto/schnorr.h"
#include "secure/secure_client.h"
#include "tests/cluster_fixture.h"

namespace ss {
namespace {

using crypto::Bignum;
using crypto::DhGroup;
using crypto::HmacDrbg;
using crypto::schnorr_sign;
using crypto::schnorr_verify;
using crypto::SchnorrSignature;
using util::bytes_of;

TEST(Schnorr, SignVerifyRoundTrip) {
  const DhGroup& g = DhGroup::ss256();
  HmacDrbg rnd(1, "schnorr");
  const Bignum x = g.random_share(rnd);
  const Bignum y = g.exp_g(x);
  const auto msg = bytes_of("message to authenticate");
  const SchnorrSignature sig = schnorr_sign(g, x, y, msg, rnd);
  EXPECT_TRUE(schnorr_verify(g, y, msg, sig));
}

TEST(Schnorr, WrongMessageRejected) {
  const DhGroup& g = DhGroup::ss256();
  HmacDrbg rnd(2, "schnorr");
  const Bignum x = g.random_share(rnd);
  const Bignum y = g.exp_g(x);
  const SchnorrSignature sig = schnorr_sign(g, x, y, bytes_of("original"), rnd);
  EXPECT_FALSE(schnorr_verify(g, y, bytes_of("tampered"), sig));
}

TEST(Schnorr, WrongKeyRejected) {
  const DhGroup& g = DhGroup::ss256();
  HmacDrbg rnd(3, "schnorr");
  const Bignum x = g.random_share(rnd);
  const Bignum y = g.exp_g(x);
  const Bignum y2 = g.exp_g(g.random_share(rnd));
  const auto msg = bytes_of("m");
  const SchnorrSignature sig = schnorr_sign(g, x, y, msg, rnd);
  EXPECT_FALSE(schnorr_verify(g, y2, msg, sig));
}

TEST(Schnorr, MalleatedSignatureRejected) {
  const DhGroup& g = DhGroup::ss256();
  HmacDrbg rnd(4, "schnorr");
  const Bignum x = g.random_share(rnd);
  const Bignum y = g.exp_g(x);
  const auto msg = bytes_of("m");
  SchnorrSignature sig = schnorr_sign(g, x, y, msg, rnd);
  sig.response = (sig.response + Bignum(1)) % g.q();
  EXPECT_FALSE(schnorr_verify(g, y, msg, sig));
  SchnorrSignature sig2 = schnorr_sign(g, x, y, msg, rnd);
  sig2.challenge = (sig2.challenge + Bignum(1)) % g.q();
  EXPECT_FALSE(schnorr_verify(g, y, msg, sig2));
}

TEST(Schnorr, InvalidPublicKeyRejected) {
  const DhGroup& g = DhGroup::ss256();
  HmacDrbg rnd(5, "schnorr");
  const Bignum x = g.random_share(rnd);
  const Bignum y = g.exp_g(x);
  const auto msg = bytes_of("m");
  const SchnorrSignature sig = schnorr_sign(g, x, y, msg, rnd);
  EXPECT_FALSE(schnorr_verify(g, Bignum(1), msg, sig));          // order-1 element
  EXPECT_FALSE(schnorr_verify(g, g.p() - Bignum(1), msg, sig));  // order-2 element
}

TEST(Schnorr, CodecRoundTrip) {
  const DhGroup& g = DhGroup::tiny64();
  HmacDrbg rnd(6, "schnorr");
  const Bignum x = g.random_share(rnd);
  const Bignum y = g.exp_g(x);
  const SchnorrSignature sig = schnorr_sign(g, x, y, bytes_of("codec"), rnd);
  const auto d = util::decode<SchnorrSignature>(sig.encode());
  EXPECT_EQ(d.challenge, sig.challenge);
  EXPECT_EQ(d.response, sig.response);
}

// --- secure-layer sender authentication --------------------------------------

namespace sauth {

using gcs::GroupName;
using secure::SecureGroupClient;
using secure::SecureGroupConfig;
using secure::SecureMessage;
using testing::Cluster;

struct AuthFixture : public ::testing::Test {
  AuthFixture() : c(3), dir(DhGroup::tiny64()) { EXPECT_TRUE(c.converge(3)); }

  SecureGroupConfig cfg(const std::string& ka = "cliques") {
    SecureGroupConfig out;
    out.ka_module = ka;
    out.dh = &DhGroup::tiny64();
    out.authenticate_senders = true;
    return out;
  }

  Cluster c;
  cliques::KeyDirectory dir;
};

TEST_F(AuthFixture, CliquesMessagesArriveAuthenticated) {
  SecureGroupClient a(*c.daemons[0], dir, 1);
  SecureGroupClient b(*c.daemons[1], dir, 2);
  std::vector<SecureMessage> got;
  b.on_message([&](const SecureMessage& m) { got.push_back(m); });
  a.join("g", cfg());
  b.join("g", cfg());
  ASSERT_TRUE(c.run_until([&] { return a.has_key("g") && b.has_key("g"); }, 5 * sim::kSecond));
  a.send("g", bytes_of("signed by my share"));
  ASSERT_TRUE(c.run_until([&] { return !got.empty(); }, 5 * sim::kSecond));
  EXPECT_TRUE(got[0].authenticated);
  EXPECT_EQ(got[0].sender, a.id());
  EXPECT_EQ(util::string_of(got[0].plaintext), "signed by my share");
}

TEST_F(AuthFixture, AuthenticationSurvivesRekey) {
  SecureGroupClient a(*c.daemons[0], dir, 1);
  SecureGroupClient b(*c.daemons[1], dir, 2);
  std::vector<SecureMessage> got;
  b.on_message([&](const SecureMessage& m) { got.push_back(m); });
  a.join("g", cfg());
  b.join("g", cfg());
  ASSERT_TRUE(c.run_until([&] { return a.has_key("g") && b.has_key("g"); }, 5 * sim::kSecond));
  a.send("g", bytes_of("m1"));
  b.refresh_key("g");
  c.run_for(300 * sim::kMillisecond);
  a.send("g", bytes_of("m2"));
  ASSERT_TRUE(c.run_until([&] { return got.size() == 2; }, 5 * sim::kSecond));
  EXPECT_TRUE(got[0].authenticated);
  EXPECT_TRUE(got[1].authenticated);
}

TEST_F(AuthFixture, AuthenticationSurvivesMembershipChange) {
  SecureGroupClient a(*c.daemons[0], dir, 1);
  SecureGroupClient b(*c.daemons[1], dir, 2);
  SecureGroupClient d(*c.daemons[2], dir, 3);
  std::vector<SecureMessage> got;
  b.on_message([&](const SecureMessage& m) { got.push_back(m); });
  a.join("g", cfg());
  b.join("g", cfg());
  d.join("g", cfg());
  ASSERT_TRUE(c.run_until(
      [&] { return a.has_key("g") && b.has_key("g") && d.has_key("g"); }, 10 * sim::kSecond));
  d.leave("g");
  ASSERT_TRUE(c.run_until(
      [&] {
        const auto* v = a.current_view("g");
        return v != nullptr && v->members.size() == 2 && a.has_key("g") && b.has_key("g");
      },
      10 * sim::kSecond));
  a.send("g", bytes_of("post-leave"));
  ASSERT_TRUE(c.run_until([&] { return !got.empty(); }, 5 * sim::kSecond));
  EXPECT_TRUE(got.back().authenticated);
}

TEST_F(AuthFixture, CkdCannotAuthenticateIndividuals) {
  // The paper's §2.2 point: centralized key management does not allow
  // per-member authentication — messages arrive unauthenticated.
  SecureGroupClient a(*c.daemons[0], dir, 1);
  SecureGroupClient b(*c.daemons[1], dir, 2);
  std::vector<SecureMessage> got;
  b.on_message([&](const SecureMessage& m) { got.push_back(m); });
  a.join("g", cfg("ckd"));
  b.join("g", cfg("ckd"));
  ASSERT_TRUE(c.run_until([&] { return a.has_key("g") && b.has_key("g"); }, 5 * sim::kSecond));
  a.send("g", bytes_of("unsigned"));
  ASSERT_TRUE(c.run_until([&] { return !got.empty(); }, 5 * sim::kSecond));
  EXPECT_FALSE(got[0].authenticated);
  EXPECT_EQ(util::string_of(got[0].plaintext), "unsigned");
}

TEST_F(AuthFixture, UnsignedPeersInteroperate) {
  // A member with authentication off can talk to one with it on; its
  // messages simply arrive unauthenticated.
  SecureGroupClient a(*c.daemons[0], dir, 1);
  SecureGroupClient b(*c.daemons[1], dir, 2);
  std::vector<SecureMessage> at_b;
  b.on_message([&](const SecureMessage& m) { at_b.push_back(m); });
  SecureGroupConfig unsigned_cfg = cfg();
  unsigned_cfg.authenticate_senders = false;
  a.join("g", unsigned_cfg);
  b.join("g", cfg());
  ASSERT_TRUE(c.run_until([&] { return a.has_key("g") && b.has_key("g"); }, 5 * sim::kSecond));
  a.send("g", bytes_of("no sig"));
  ASSERT_TRUE(c.run_until([&] { return !at_b.empty(); }, 5 * sim::kSecond));
  EXPECT_FALSE(at_b[0].authenticated);
}

TEST_F(AuthFixture, ReservedTypesRejectedFromApp) {
  SecureGroupClient a(*c.daemons[0], dir, 1);
  a.join("g", cfg());
  ASSERT_TRUE(c.run_until([&] { return a.has_key("g"); }, 5 * sim::kSecond));
  EXPECT_THROW(a.send("g", bytes_of("x"), secure::kShareCommitType), std::invalid_argument);
}

}  // namespace sauth

}  // namespace
}  // namespace ss
