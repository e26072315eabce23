// Tests for the HMAC-DRBG and the named Diffie-Hellman groups.
#include <gtest/gtest.h>

#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/exp_counter.h"
#include "util/bytes.h"

namespace ss::crypto {
namespace {

using util::Bytes;
using util::bytes_of;

TEST(DrbgTest, DeterministicForSameSeed) {
  HmacDrbg a(42, "test");
  HmacDrbg b(42, "test");
  EXPECT_EQ(a.generate(64), b.generate(64));
}

TEST(DrbgTest, DifferentSeedsDiverge) {
  HmacDrbg a(1, "test");
  HmacDrbg b(2, "test");
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(DrbgTest, PersonalizationSeparatesStreams) {
  HmacDrbg a(7, "alpha");
  HmacDrbg b(7, "beta");
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(DrbgTest, SuccessiveOutputsDiffer) {
  HmacDrbg d(3, "stream");
  EXPECT_NE(d.generate(20), d.generate(20));
}

TEST(DrbgTest, ReseedChangesStream) {
  HmacDrbg a(9, "r");
  HmacDrbg b(9, "r");
  b.reseed(bytes_of("fresh entropy"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(DrbgTest, OsEntropyWorks) {
  HmacDrbg d = HmacDrbg::from_os_entropy();
  Bytes out = d.generate(16);
  EXPECT_EQ(out.size(), 16u);
}

TEST(DrbgTest, FillCoversArbitraryLengths) {
  HmacDrbg d(11, "len");
  for (std::size_t len : {1u, 19u, 20u, 21u, 40u, 100u}) {
    EXPECT_EQ(d.generate(len).size(), len);
  }
}

// The DRBG stream feeds every key share, nonce and IV, so the seeded
// transcripts depend on it byte for byte. The expected bytes are a
// recording (an HMAC-DRBG written over Python's hmac module gives the
// same); a change to the SHA-1 or HMAC kernels must reproduce them.
TEST(DrbgTest, OutputStreamPinned) {
  HmacDrbg d(1, "pin");
  EXPECT_EQ(util::to_hex(d.generate(64)),
            "cafb5af5a9d914edc2d819c987f9e633807ed480a3db84dcc4d27286d5b7a697"
            "6b512620c1864fb0c516f5a3e256d8ab117b59d1bf6704fd1ce661315d0d9b80");
  EXPECT_EQ(util::to_hex(d.generate(8)), "381f98c7e1408a30");
  d.reseed(bytes_of("more"));
  EXPECT_EQ(util::to_hex(d.generate(20)), "c790bd26bacaeda8a5a163aa8488b21edbaa0eb1");
}

// --- DH groups -------------------------------------------------------------

TEST(DhGroupTest, Tiny64IsSafePrimeGroup) {
  HmacDrbg rnd(1, "dh");
  EXPECT_TRUE(DhGroup::tiny64().verify(20, rnd));
}

TEST(DhGroupTest, Ss256IsSafePrimeGroup) {
  HmacDrbg rnd(2, "dh");
  EXPECT_TRUE(DhGroup::ss256().verify(15, rnd));
}

TEST(DhGroupTest, Ss512IsSafePrimeGroup) {
  HmacDrbg rnd(3, "dh");
  EXPECT_TRUE(DhGroup::ss512().verify(10, rnd));
  EXPECT_EQ(DhGroup::ss512().p().bit_length(), 512u);
  EXPECT_EQ(DhGroup::ss512().element_bytes(), 64u);
}

TEST(DhGroupTest, OakleyGroup1MatchesPublishedValue) {
  // RFC 2412 / RFC 2409 768-bit MODP prime.
  EXPECT_EQ(DhGroup::oakley_group1().p().to_hex(),
            "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74"
            "020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437"
            "4fe1356d6d51c245e485b576625e7ec6f44c42e9a63a3620ffffffffffffffff");
}

TEST(DhGroupTest, OakleyGroup2MatchesPublishedValue) {
  // RFC 2412 / RFC 2409 1024-bit MODP prime.
  EXPECT_EQ(DhGroup::oakley_group2().p().to_hex(),
            "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74"
            "020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437"
            "4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed"
            "ee386bfb5a899fa5ae9f24117c4b1fe649286651ece65381ffffffffffffffff");
}

TEST(DhGroupTest, ByNameLookup) {
  EXPECT_EQ(&DhGroup::by_name("tiny64"), &DhGroup::tiny64());
  EXPECT_EQ(&DhGroup::by_name("ss512"), &DhGroup::ss512());
  EXPECT_EQ(&DhGroup::by_name("oakley2"), &DhGroup::oakley_group2());
  EXPECT_THROW(DhGroup::by_name("nope"), std::invalid_argument);
}

TEST(DhGroupTest, TwoPartyAgreement) {
  const DhGroup& g = DhGroup::ss256();
  HmacDrbg rnd(5, "dh2");
  const Bignum a = g.random_share(rnd);
  const Bignum b = g.random_share(rnd);
  const Bignum ga = g.exp_g(a);
  const Bignum gb = g.exp_g(b);
  EXPECT_EQ(g.exp(gb, a), g.exp(ga, b));
}

TEST(DhGroupTest, SharesAreInRange) {
  const DhGroup& g = DhGroup::tiny64();
  HmacDrbg rnd(6, "dh3");
  for (int i = 0; i < 100; ++i) {
    const Bignum s = g.random_share(rnd);
    ASSERT_FALSE(s.is_zero());
    ASSERT_LT(s, g.q());
  }
}

TEST(DhGroupTest, InverseShareFactorsOut) {
  // The Cliques "remove my share" step: (g^{ab})^{a^{-1} mod q} == g^b.
  const DhGroup& g = DhGroup::ss256();
  HmacDrbg rnd(7, "dh4");
  const Bignum a = g.random_share(rnd);
  const Bignum b = g.random_share(rnd);
  const Bignum gab = g.exp_g(g.mul_mod_q(a, b));
  const Bignum a_inv = g.inverse_share(a);
  EXPECT_EQ(g.exp(gab, a_inv), g.exp_g(b));
}

TEST(DhGroupTest, ElementValidation) {
  const DhGroup& g = DhGroup::ss256();
  HmacDrbg rnd(8, "dh5");
  EXPECT_FALSE(g.is_valid_element(Bignum()));
  EXPECT_FALSE(g.is_valid_element(Bignum(1)));
  EXPECT_FALSE(g.is_valid_element(g.p()));
  EXPECT_FALSE(g.is_valid_element(g.p() - Bignum(1)));  // order 2, not in subgroup
  EXPECT_TRUE(g.is_valid_element(g.exp_g(g.random_share(rnd))));
}

TEST(DhGroupTest, GeneratorHasOrderQ) {
  const DhGroup& g = DhGroup::tiny64();
  // g^q == 1 and g^1 != 1.
  detail::ExpTallySuspender suspend;
  EXPECT_TRUE(g.exp(g.g(), g.q()).is_one());
  EXPECT_FALSE(g.g().is_one());
}

TEST(DhGroupTest, ExponentiationIsCounted) {
  reset_exp_tally();
  const DhGroup& g = DhGroup::tiny64();
  HmacDrbg rnd(9, "dh6");
  const Bignum s = g.random_share(rnd);
  (void)g.exp_g(s);
  EXPECT_EQ(exp_tally().total(), 1u);
  // Element validation and share inversion are deliberately NOT counted.
  (void)g.is_valid_element(g.exp_g(s) /* counted: 1 more */);
  (void)g.inverse_share(s);
  EXPECT_EQ(exp_tally().total(), 2u);
  reset_exp_tally();
}

}  // namespace
}  // namespace ss::crypto
