// Known-answer tests for SHA-1 (FIPS 180-1), HMAC-SHA1 (RFC 2202) and the
// KDF, plus the pi spigot that seeds Blowfish and the Oakley primes.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <span>
#include <utility>

#include "crypto/hmac.h"
#include "crypto/pi_spigot.h"
#include "crypto/sha1.h"
#include "util/bytes.h"
#include "util/rng.h"

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

// Lengths around the 55/56-byte boundary where the length field no longer
// fits in the last block, and around one full block.
TEST(Sha1Test, PaddingBoundaries) {
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "c1c8bbdc22796e28c0e15163d20899b65621d65a"},
      {56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"},
      {63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"},
      {64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"},
      {65, "11655326c708d70319be2610e8a57d9a5b959d3b"},
  };
  for (const auto& [len, digest] : cases) {
    EXPECT_EQ(to_hex(Sha1::hash(Bytes(len, 'a'))), digest) << len << " bytes";
  }
}

TEST(Sha1Test, SplitAtEveryOffsetOf200Bytes) {
  Bytes msg(200);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i * 37 + 11);
  const Bytes one_shot = Sha1::hash(msg);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha1 ctx;
    ctx.update(msg.data(), split);
    ctx.update(msg.data() + split, msg.size() - split);
    auto d = ctx.digest();
    ASSERT_EQ(Bytes(d.begin(), d.end()), one_shot) << "split=" << split;
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

TEST(HmacTest, Rfc2202Case4) {
  Bytes key(25);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i + 1);
  EXPECT_EQ(to_hex(hmac_sha1(key, Bytes(50, 0xcd))), "4c9007f4026250c6bc8414f9bf50c86c2d7235da");
}

TEST(HmacTest, Rfc2202Case5) {
  // RFC 2202 lists the tag truncated to 96 bits as well; this is the full tag.
  EXPECT_EQ(to_hex(hmac_sha1(Bytes(20, 0x0c), bytes_of("Test With Truncation"))),
            "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04");
}

TEST(HmacTest, Rfc2202Case6LongKey) {
  const Bytes key(80, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha1(key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(HmacTest, Rfc2202Case7LongKeyAndData) {
  const Bytes key(80, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha1(key, bytes_of("Test Using Larger Than Block-Size Key and Larger "
                                           "Than One Block-Size Data"))),
            "e8e99d0f45237d786d6bbaa7965c7808bbff1a91");
}

// A key object reused across messages, each fed in three ranges split at
// random points, gives the one-off hmac_sha1 of the whole message.
TEST(HmacTest, KeyedTagOverRandomSplitsMatchesOneShot) {
  util::Rng rng(23);
  for (std::size_t key_len : {0u, 1u, 20u, 63u, 64u, 65u, 90u}) {
    Bytes key(key_len);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    const HmacSha1 mac(key);
    for (int trial = 0; trial < 40; ++trial) {
      Bytes msg(rng.below(300));
      for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
      std::size_t a = rng.below(msg.size() + 1), b = rng.below(msg.size() + 1);
      if (a > b) std::swap(a, b);
      const std::span<const std::uint8_t> m(msg);
      const HmacSha1::Tag t = mac.tag({m.first(a), m.subspan(a, b - a), m.subspan(b)});
      ASSERT_EQ(Bytes(t.begin(), t.end()), hmac_sha1(key, msg))
          << "key " << key_len << " bytes, message " << msg.size() << " split " << a << "/" << b;
    }
  }
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
