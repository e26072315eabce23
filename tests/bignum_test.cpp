#include "crypto/bignum.h"

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>

#include "crypto/drbg.h"
#include "crypto/exp_counter.h"

namespace ss::crypto {
namespace {

TEST(Bignum, DefaultIsZero) {
  Bignum z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_TRUE(z.to_bytes().empty());
}

TEST(Bignum, U64Construction) {
  EXPECT_EQ(Bignum(0).to_hex(), "0");
  EXPECT_EQ(Bignum(1).to_hex(), "1");
  EXPECT_EQ(Bignum(0xDEADBEEFu).to_hex(), "deadbeef");
  EXPECT_EQ(Bignum(0x123456789ABCDEF0ULL).to_hex(), "123456789abcdef0");
  EXPECT_EQ(Bignum(~0ULL).to_hex(), "ffffffffffffffff");
}

TEST(Bignum, HexRoundTrip) {
  const char* cases[] = {"1", "ff", "100", "deadbeefcafebabe",
                         "123456789abcdef0123456789abcdef0123456789abcdef"};
  for (const char* c : cases) {
    EXPECT_EQ(Bignum::from_hex(c).to_hex(), c);
  }
  // Leading zeros are normalized away.
  EXPECT_EQ(Bignum::from_hex("000000ff").to_hex(), "ff");
  EXPECT_EQ(Bignum::from_hex("").to_hex(), "0");
}

TEST(Bignum, FromHexRejectsGarbage) {
  EXPECT_THROW(Bignum::from_hex("xyz"), std::invalid_argument);
  EXPECT_THROW(Bignum::from_hex("12 34"), std::invalid_argument);
}

TEST(Bignum, BytesRoundTrip) {
  util::Bytes b = {0x01, 0x02, 0x03, 0x04, 0x05};
  Bignum v = Bignum::from_bytes(b);
  EXPECT_EQ(v.to_hex(), "102030405");
  EXPECT_EQ(v.to_bytes(), b);
  // Leading zero bytes are accepted and dropped on export.
  util::Bytes padded = {0x00, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05};
  EXPECT_EQ(Bignum::from_bytes(padded), v);
  EXPECT_EQ(v.to_bytes_padded(7), padded);
  EXPECT_THROW(v.to_bytes_padded(4), std::length_error);
}

TEST(Bignum, Comparisons) {
  EXPECT_LT(Bignum(1), Bignum(2));
  EXPECT_GT(Bignum::from_hex("100000000"), Bignum::from_hex("ffffffff"));
  EXPECT_EQ(Bignum(42), Bignum(42));
  EXPECT_LT(Bignum(), Bignum(1));
}

TEST(Bignum, AdditionCarries) {
  EXPECT_EQ(Bignum::from_hex("ffffffff") + Bignum(1), Bignum::from_hex("100000000"));
  EXPECT_EQ(Bignum::from_hex("ffffffffffffffffffffffff") + Bignum(1),
            Bignum::from_hex("1000000000000000000000000"));
  EXPECT_EQ(Bignum() + Bignum(), Bignum());
}

TEST(Bignum, SubtractionBorrows) {
  EXPECT_EQ(Bignum::from_hex("100000000") - Bignum(1), Bignum::from_hex("ffffffff"));
  EXPECT_EQ(Bignum(5) - Bignum(5), Bignum());
  EXPECT_THROW(Bignum(1) - Bignum(2), std::domain_error);
}

TEST(Bignum, Multiplication) {
  EXPECT_EQ(Bignum(0) * Bignum(12345), Bignum());
  EXPECT_EQ(Bignum::from_hex("ffffffff") * Bignum::from_hex("ffffffff"),
            Bignum::from_hex("fffffffe00000001"));
  EXPECT_EQ(Bignum::from_hex("ffffffffffffffff") * Bignum::from_hex("ffffffffffffffff"),
            Bignum::from_hex("fffffffffffffffe0000000000000001"));
}

TEST(Bignum, Shifts) {
  EXPECT_EQ(Bignum(1) << 0, Bignum(1));
  EXPECT_EQ((Bignum(1) << 100).to_hex(), "10000000000000000000000000");
  EXPECT_EQ((Bignum(1) << 100) >> 100, Bignum(1));
  EXPECT_EQ(Bignum::from_hex("deadbeef") >> 16, Bignum::from_hex("dead"));
  EXPECT_EQ(Bignum(1) >> 1, Bignum());
  EXPECT_EQ(Bignum() << 64, Bignum());
}

TEST(Bignum, BitAccess) {
  Bignum v = Bignum::from_hex("8000000000000001");
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(1));
  EXPECT_FALSE(v.bit(64));  // out of range reads 0
  EXPECT_EQ(v.bit_length(), 64u);
}

TEST(Bignum, DivmodBasics) {
  auto [q, r] = Bignum::divmod(Bignum(100), Bignum(7));
  EXPECT_EQ(q, Bignum(14));
  EXPECT_EQ(r, Bignum(2));
  EXPECT_THROW(Bignum::divmod(Bignum(1), Bignum()), std::domain_error);
  // a < b
  auto [q2, r2] = Bignum::divmod(Bignum(3), Bignum(7));
  EXPECT_EQ(q2, Bignum());
  EXPECT_EQ(r2, Bignum(3));
}

TEST(Bignum, DivmodKnuthAddBackStress) {
  // Divisors with a maximal top limb push Knuth D through its q_hat
  // correction paths.
  Bignum a = Bignum::from_hex("ffffffffffffffffffffffffffffffff00000000000000000000000000000000");
  Bignum b = Bignum::from_hex("ffffffffffffffffffffffffffffffff");
  auto [q, r] = Bignum::divmod(a, b);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);
}

class BignumRandomized : public ::testing::TestWithParam<int> {};

TEST_P(BignumRandomized, DivmodInvariant) {
  HmacDrbg rnd(static_cast<std::uint64_t>(GetParam()), "divmod");
  for (int i = 0; i < 50; ++i) {
    const std::size_t abits = 32 + static_cast<std::size_t>(GetParam()) * 61 % 700;
    const std::size_t bbits = 1 + (static_cast<std::size_t>(i) * 37) % (abits + 32);
    Bignum a = Bignum::random_below(Bignum(1) << abits, rnd);
    Bignum b = Bignum::random_below(Bignum(1) << bbits, rnd) + Bignum(1);
    auto [q, r] = Bignum::divmod(a, b);
    ASSERT_EQ(q * b + r, a) << "a=" << a.to_hex() << " b=" << b.to_hex();
    ASSERT_LT(r, b);
  }
}

TEST_P(BignumRandomized, AddSubInverse) {
  HmacDrbg rnd(static_cast<std::uint64_t>(GetParam()), "addsub");
  for (int i = 0; i < 50; ++i) {
    Bignum a = Bignum::random_below(Bignum(1) << 300, rnd);
    Bignum b = Bignum::random_below(Bignum(1) << 300, rnd);
    ASSERT_EQ((a + b) - b, a);
    ASSERT_EQ((a + b) - a, b);
  }
}

TEST_P(BignumRandomized, MulCommutesAndDistributes) {
  HmacDrbg rnd(static_cast<std::uint64_t>(GetParam()), "mul");
  for (int i = 0; i < 20; ++i) {
    Bignum a = Bignum::random_below(Bignum(1) << 200, rnd);
    Bignum b = Bignum::random_below(Bignum(1) << 150, rnd);
    Bignum c = Bignum::random_below(Bignum(1) << 100, rnd);
    ASSERT_EQ(a * b, b * a);
    ASSERT_EQ(a * (b + c), a * b + a * c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BignumRandomized, ::testing::Range(0, 8));

struct ModExpVector {
  const char* base;
  const char* exp;
  const char* mod;
  const char* expected;
};

// A stable label instead of gtest's raw pointer bytes, which move with ASLR
// and would rename the ctest-discovered tests on every build.
void PrintTo(const ModExpVector& v, std::ostream* os) {
  *os << std::strlen(v.mod) * 4 << "-bit modulus";
}

class ModExpKat : public ::testing::TestWithParam<ModExpVector> {};

TEST_P(ModExpKat, MatchesReference) {
  const auto& v = GetParam();
  EXPECT_EQ(Bignum::mod_exp(Bignum::from_hex(v.base), Bignum::from_hex(v.exp),
                            Bignum::from_hex(v.mod)),
            Bignum::from_hex(v.expected));
}

// Reference values computed with an independent implementation (CPython pow).
INSTANTIATE_TEST_SUITE_P(
    Reference, ModExpKat,
    ::testing::Values(
        ModExpVector{"1de9ea6670d3da1f", "17346b4501eaf614", "c735df5ef7697fb9",
                     "3856b6977308bfa2"},
        ModExpVector{"4b296c4a5bf7d7cdfb853e4da792b2ef8c31b06ad3c4296427e83aaa2c474155",
                     "76ab14759da618fd7bf78a4d9f8f5ffba5f80a0a58994953040e1e30c9ed0248",
                     "b16e2d5cabeb959208f0ebd4950cddd9ce97b5bdf073eed1f149f542e935b871",
                     "76429c59f5242ce2350b7ee13778e9901b2ea7b8bc1df7eaef7fa165c94cf72a"},
        ModExpVector{
            "d9a54a0d7b25331f4d6bfd8fa506bfc51025dbe58e725d57d30aad4b45038e220bc4621b9439852083d9"
            "fca716c40a33acd51e6699f9823c118dc10e774520d7",
            "5560eaba017ad051121213ca8212f7c6f1048aa604f0d0f2aa58695187b8a518e065e3eb74113cb03335"
            "4fc7eefadf23a7cda6c23fc86ee6443658625af0f3e0",
            "e98d7c358a84c15caad14268108727563ff4bb8cf703c9ffe16682717c9bbfae80ca17b703be0e66d868"
            "c2cf1d4a2b12b6a20bb02edf0743175e99412607ad5f",
            "8dca9da79c68e2a1afba65f66eb7f9d63c3536302895f3c6c9aa1c96b946c7bec29de323e6246cfc5cda"
            "6c87d52ea174d50a6233ccaea05e89c0e2e4feb20c57"},
        ModExpVector{
            "317ecb9ea211c92781f117349ad31e3c2dbd04d2c71ae94b6a820b222a5ac31943306890a443fed48401"
            "616684dd4d335b7370f60ba4c7993c93c7936786ce0d77fe906f349197da8c9604a3d42fba9e7cdf714b"
            "e086f9eaf7c9a0ff3f11801fb3f3a36019b24124ae33c17b93ce996ba4964accae86bf7b8fc8ce1a0898"
            "589a",
            "f6a11b92cf58440cb33bfa31b3e174eb1bb039fa5868c99b31007342a41b657a4166c3fba8094805d117"
            "76a4d15703e0607741867c362491d72f9ecdd454f1e81a644d9287a0eabff0689ae11e956a7dc4e14589"
            "6fa19d466a94427d2f84ea0fc7154f271fb661b44669165f4bb19d02701861c0d092e07f84eb1e73c7f3"
            "c8a0",
            "8a4adb41ce779a93a99226f446db4bc46a8f69260a228ba87442a1244e2e3761aba601ca242780aa8799"
            "51fff4f991a81c63373ac55ef18658a295d4eff35b6106f1e77124ed49b137106d208ead31c813484861"
            "29fc1d9d7f1ff9fe966844aa138411eb0dde6d082ac7e1da6099d795a8486261790b2f7cb5c36ec124ce"
            "01e1",
            "3f818c9f22904ab28365238cbc4d1cc6bde391798bb5ab91a245ade7e15895ea2559bec824eb4af8bde2"
            "116eaac5387de73142a56594559cda79011b7fba60c5c97609c962074bf548c8f9806da130ed5dc8c041"
            "50468f7a241c2bb6893a8b40c8fd424d02871d4d3dd9ae10c4fe55fea8c4d38dc071819060261688b638"
            "85f8"}));

TEST(ModExp, EdgeCases) {
  const Bignum p = Bignum::from_hex("c735df5ef7697fb9");  // odd modulus
  EXPECT_EQ(Bignum::mod_exp(Bignum(5), Bignum(), p), Bignum(1));  // e = 0
  EXPECT_EQ(Bignum::mod_exp(Bignum(), Bignum(10), p), Bignum());  // base = 0
  EXPECT_EQ(Bignum::mod_exp(Bignum(5), Bignum(1), p), Bignum(5));
  EXPECT_EQ(Bignum::mod_exp(Bignum(7), Bignum(3), Bignum(1)), Bignum());  // mod 1
  EXPECT_THROW(Bignum::mod_exp(Bignum(2), Bignum(2), Bignum()), std::domain_error);
}

TEST(ModExp, EvenModulusFallback) {
  // The generic path (even modulus) must agree with reference arithmetic:
  // 3^10 = 59049, 59049 mod 1024 = 681.
  EXPECT_EQ(Bignum::mod_exp(Bignum(3), Bignum(10), Bignum(1024)), Bignum(681));
}

TEST(ModExp, HomomorphicProperty) {
  HmacDrbg rnd(99, "homomorphic");
  const Bignum p = Bignum::from_hex(
      "e98d7c358a84c15caad14268108727563ff4bb8cf703c9ffe16682717c9bbfae80ca17b703be0e66d868c2cf"
      "1d4a2b12b6a20bb02edf0743175e99412607ad5f");
  for (int i = 0; i < 10; ++i) {
    Bignum g = Bignum::random_below(p, rnd);
    Bignum a = Bignum::random_below(Bignum(1) << 128, rnd);
    Bignum b = Bignum::random_below(Bignum(1) << 128, rnd);
    ASSERT_EQ(Bignum::mod_exp(g, a + b, p),
              Bignum::mod_mul(Bignum::mod_exp(g, a, p), Bignum::mod_exp(g, b, p), p));
  }
}

TEST(ModExp, MontgomeryMatchesGenericPath) {
  // Force the generic path by multiplying an odd modulus by 2, then compare
  // residues mod the odd part via CRT-free check: compute both ways mod odd m.
  HmacDrbg rnd(7, "mont-vs-generic");
  const Bignum m = Bignum::from_hex("b16e2d5cabeb959208f0ebd4950cddd9ce97b5bdf073eed1f149f542e935b871");
  for (int i = 0; i < 10; ++i) {
    Bignum b = Bignum::random_below(m, rnd);
    Bignum e = Bignum::random_below(Bignum(1) << 96, rnd);
    // Naive square-and-multiply oracle.
    Bignum acc(1);
    for (std::size_t bit = e.bit_length(); bit-- > 0;) {
      acc = (acc * acc) % m;
      if (e.bit(bit)) acc = (acc * b) % m;
    }
    ASSERT_EQ(Bignum::mod_exp(b, e, m), acc);
  }
}

TEST(ModInverse, PrimeModulus) {
  const Bignum p(101);
  for (std::uint64_t a = 1; a < 101; ++a) {
    Bignum inv = Bignum::mod_inverse_prime(Bignum(a), p);
    EXPECT_EQ(Bignum::mod_mul(Bignum(a), inv, p), Bignum(1));
  }
  EXPECT_THROW(Bignum::mod_inverse_prime(Bignum(3), Bignum(4)), std::domain_error);
}

TEST(RandomBelow, RespectsBound) {
  HmacDrbg rnd(5, "bounds");
  const Bignum bound = Bignum::from_hex("10000000001");
  for (int i = 0; i < 200; ++i) {
    ASSERT_LT(Bignum::random_below(bound, rnd), bound);
  }
  EXPECT_THROW(Bignum::random_below(Bignum(), rnd), std::domain_error);
}

TEST(RandomUnit, NeverZero) {
  HmacDrbg rnd(6, "unit");
  const Bignum bound(3);
  for (int i = 0; i < 50; ++i) {
    Bignum v = Bignum::random_unit(bound, rnd);
    ASSERT_FALSE(v.is_zero());
    ASSERT_LT(v, bound);
  }
}

TEST(Primality, KnownPrimes) {
  HmacDrbg rnd(1, "prime");
  EXPECT_TRUE(Bignum::is_probable_prime(Bignum(2), 10, rnd));
  EXPECT_TRUE(Bignum::is_probable_prime(Bignum(3), 10, rnd));
  EXPECT_TRUE(Bignum::is_probable_prime(Bignum(65537), 10, rnd));
  EXPECT_TRUE(Bignum::is_probable_prime(Bignum(0xFFFFFFFFFFFFFA43ULL), 10, rnd));  // tiny64 p
  // 2^192 - 2^64 - 1 (the NIST P-192 field prime).
  EXPECT_TRUE(Bignum::is_probable_prime(
      Bignum::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff"), 10, rnd));
}

TEST(Primality, KnownComposites) {
  HmacDrbg rnd(2, "composite");
  EXPECT_FALSE(Bignum::is_probable_prime(Bignum(1), 10, rnd));
  EXPECT_FALSE(Bignum::is_probable_prime(Bignum(), 10, rnd));
  EXPECT_FALSE(Bignum::is_probable_prime(Bignum(561), 10, rnd));    // Carmichael
  EXPECT_FALSE(Bignum::is_probable_prime(Bignum(62745), 10, rnd));  // Carmichael
  EXPECT_FALSE(Bignum::is_probable_prime(Bignum(65536), 10, rnd));
  // Product of two 32-bit primes.
  EXPECT_FALSE(Bignum::is_probable_prime(Bignum(4294967291ULL) * Bignum(4294967279ULL), 10, rnd));
}

TEST(ExpCounterTest, CountsAndLabelsExponentiations) {
  reset_exp_tally();
  const Bignum p = Bignum::from_hex("c735df5ef7697fb9");
  Bignum::mod_exp(Bignum(2), Bignum(100), p);
  {
    ExpPurposeScope scope(ExpPurpose::kSessionKey);
    Bignum::mod_exp(Bignum(2), Bignum(100), p);
    Bignum::mod_exp(Bignum(3), Bignum(100), p);
  }
  const ExpTally t = exp_tally();
  EXPECT_EQ(t.total(), 3u);
  EXPECT_EQ(t.count(ExpPurpose::kUnspecified), 1u);
  EXPECT_EQ(t.count(ExpPurpose::kSessionKey), 2u);
  reset_exp_tally();
  EXPECT_EQ(exp_tally().total(), 0u);
}

TEST(ExpCounterTest, ScopesNest) {
  reset_exp_tally();
  const Bignum p = Bignum::from_hex("c735df5ef7697fb9");
  {
    ExpPurposeScope outer(ExpPurpose::kLongTermKey);
    Bignum::mod_exp(Bignum(2), Bignum(3), p);
    {
      ExpPurposeScope inner(ExpPurpose::kSessionKey);
      Bignum::mod_exp(Bignum(2), Bignum(3), p);
    }
    Bignum::mod_exp(Bignum(2), Bignum(3), p);
  }
  const ExpTally t = exp_tally();
  EXPECT_EQ(t.count(ExpPurpose::kLongTermKey), 2u);
  EXPECT_EQ(t.count(ExpPurpose::kSessionKey), 1u);
  reset_exp_tally();
}

}  // namespace
}  // namespace ss::crypto
