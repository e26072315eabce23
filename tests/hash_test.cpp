// Known-answer tests for SHA-1 (FIPS 180-1), HMAC-SHA1 (RFC 2202) and the
// KDF, plus the pi spigot that seeds Blowfish and the Oakley primes.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>

#include "crypto/hmac.h"
#include "crypto/pi_spigot.h"
#include "crypto/sha1.h"
#include "util/bytes.h"

namespace ss::crypto {
namespace {

using util::Bytes;
using util::bytes_of;
using util::from_hex;
using util::to_hex;

struct Sha1Vector {
  const char* input;
  const char* digest;
};

// Without this gtest prints the raw pointer bytes, which move with ASLR and
// so give the ctest-discovered test names a different spelling every build.
void PrintTo(const Sha1Vector& v, std::ostream* os) {
  *os << std::strlen(v.input) << "-byte message";
}

class Sha1Kat : public ::testing::TestWithParam<Sha1Vector> {};

TEST_P(Sha1Kat, Matches) {
  EXPECT_EQ(to_hex(Sha1::hash(bytes_of(GetParam().input))), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(
    Fips, Sha1Kat,
    ::testing::Values(
        Sha1Vector{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
        Sha1Vector{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
        Sha1Vector{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                   "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
        Sha1Vector{"The quick brown fox jumps over the lazy dog",
                   "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"}));

TEST(Sha1Test, MillionA) {
  Sha1 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    ctx.update(reinterpret_cast<const std::uint8_t*>(chunk.data()), chunk.size());
  }
  auto d = ctx.digest();
  EXPECT_EQ(to_hex(d.data(), d.size()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  const Bytes msg = bytes_of("incremental hashing must match one-shot hashing exactly");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha1 ctx;
    ctx.update(msg.data(), split);
    ctx.update(msg.data() + split, msg.size() - split);
    auto d = ctx.digest();
    ASSERT_EQ(Bytes(d.begin(), d.end()), Sha1::hash(msg)) << "split=" << split;
  }
}

TEST(Sha1Test, ResetReusesObject) {
  Sha1 ctx;
  ctx.update(bytes_of("garbage"));
  ctx.reset();
  ctx.update(bytes_of("abc"));
  auto d = ctx.digest();
  EXPECT_EQ(to_hex(d.data(), d.size()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(HmacTest, Rfc2202Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha1(key, bytes_of("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacTest, Rfc2202Case2) {
  EXPECT_EQ(to_hex(hmac_sha1(bytes_of("Jefe"), bytes_of("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacTest, Rfc2202Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha1(key, data)), "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(HmacTest, Rfc2202Case6LongKey) {
  const Bytes key(80, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha1(key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(KdfTest, DeterministicAndLabelSeparated) {
  const Bytes ikm = bytes_of("group secret material");
  const Bytes a1 = kdf_sha1(ikm, "cipher", 16);
  const Bytes a2 = kdf_sha1(ikm, "cipher", 16);
  const Bytes b = kdf_sha1(ikm, "mac", 16);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(a1.size(), 16u);
}

TEST(KdfTest, PrefixConsistentAcrossLengths) {
  const Bytes ikm = bytes_of("ikm");
  const Bytes short_key = kdf_sha1(ikm, "label", 10);
  const Bytes long_key = kdf_sha1(ikm, "label", 50);
  EXPECT_TRUE(std::equal(short_key.begin(), short_key.end(), long_key.begin()));
  EXPECT_EQ(long_key.size(), 50u);
}

TEST(KdfTest, DifferentIkmDiverges) {
  EXPECT_NE(kdf_sha1(bytes_of("a"), "l", 20), kdf_sha1(bytes_of("b"), "l", 20));
}

TEST(PiSpigot, KnownPrefix) {
  // First hex digits of pi's fractional part — also Blowfish's initial
  // P-array: 243F6A88 85A308D3 13198A2E 03707344 A4093822 299F31D0.
  EXPECT_EQ(pi_frac_hex(48), "243f6a8885a308d313198a2e03707344a4093822299f31d0");
}

TEST(PiSpigot, LongerRunIsConsistentPrefix) {
  const std::string short_run = pi_frac_hex(64);
  const std::string long_run = pi_frac_hex(512);
  EXPECT_EQ(long_run.substr(0, 64), short_run);
}

TEST(PiSpigot, OddLengthRequest) {
  EXPECT_EQ(pi_frac_hex(7), "243f6a8");
  EXPECT_EQ(pi_frac_hex(0), "");
  EXPECT_EQ(pi_frac_hex(1), "2");
}

TEST(PiSpigot, FloorShifted) {
  // floor(2 * pi) = 6, floor(16 * pi) = 50, floor(2^10 pi) = 3216.
  EXPECT_EQ(pi_floor_shifted(1), Bignum(6));
  EXPECT_EQ(pi_floor_shifted(4), Bignum(50));
  EXPECT_EQ(pi_floor_shifted(10), Bignum(3216));
}

}  // namespace
}  // namespace ss::crypto
