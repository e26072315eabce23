// Unit tests for the pluggable cipher suites and their registry.
#include "secure/cipher.h"

#include <gtest/gtest.h>

#include <utility>

#include "crypto/drbg.h"
#include "crypto/sha1.h"
#include "util/bytes.h"

namespace ss::secure {
namespace {

using util::Bytes;
using util::bytes_of;

TEST(CipherRegistryTest, BuiltinsPresent) {
  EXPECT_NE(CipherRegistry::instance().create("blowfish-cbc-hmac"), nullptr);
  EXPECT_NE(CipherRegistry::instance().create("null"), nullptr);
  EXPECT_THROW(CipherRegistry::instance().create("rot13"), std::out_of_range);
}

TEST(CipherRegistryTest, CustomSuiteRegistrable) {
  CipherRegistry::instance().register_suite("null-test-alias",
                                            [] { return std::make_unique<NullCipherSuite>(); });
  auto suite = CipherRegistry::instance().create("null-test-alias");
  EXPECT_EQ(suite->name(), "null");
}

class BlowfishSuiteTest : public ::testing::Test {
 protected:
  BlowfishSuiteTest() : rnd(1, "cipher-test") {
    key = rnd.generate(suite.key_material_size());
    suite.rekey(key);
  }
  BlowfishCbcHmacSuite suite;
  crypto::HmacDrbg rnd;
  Bytes key;
};

TEST_F(BlowfishSuiteTest, RoundTrip) {
  const Bytes aad = bytes_of("group|keyid");
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 100u, 4096u}) {
    Bytes pt(n, 0x3C);
    Bytes sealed = suite.protect(pt, aad, rnd);
    EXPECT_EQ(suite.unprotect(sealed, aad), pt) << "size " << n;
  }
}

TEST_F(BlowfishSuiteTest, RandomizedIvMakesDistinctCiphertexts) {
  const Bytes aad = bytes_of("aad");
  const Bytes pt = bytes_of("same plaintext");
  EXPECT_NE(suite.protect(pt, aad, rnd), suite.protect(pt, aad, rnd));
}

TEST_F(BlowfishSuiteTest, TamperedCiphertextRejected) {
  const Bytes aad = bytes_of("aad");
  Bytes sealed = suite.protect(bytes_of("attack at dawn"), aad, rnd);
  for (std::size_t pos : {std::size_t{0}, std::size_t{10}, sealed.size() - 1}) {
    Bytes bad = sealed;
    bad[pos] ^= 0x01;
    EXPECT_THROW(suite.unprotect(bad, aad), std::runtime_error) << "pos " << pos;
  }
}

TEST_F(BlowfishSuiteTest, AadIsBound) {
  Bytes sealed = suite.protect(bytes_of("msg"), bytes_of("aad-1"), rnd);
  EXPECT_THROW(suite.unprotect(sealed, bytes_of("aad-2")), std::runtime_error);
}

TEST_F(BlowfishSuiteTest, WrongKeyRejected) {
  Bytes sealed = suite.protect(bytes_of("msg"), bytes_of("aad"), rnd);
  BlowfishCbcHmacSuite other;
  other.rekey(rnd.generate(other.key_material_size()));
  EXPECT_THROW(other.unprotect(sealed, bytes_of("aad")), std::runtime_error);
}

TEST_F(BlowfishSuiteTest, TruncatedInputRejected) {
  Bytes sealed = suite.protect(bytes_of("msg"), bytes_of("aad"), rnd);
  for (std::size_t len : {std::size_t{0}, std::size_t{7}, std::size_t{27}, sealed.size() - 1}) {
    Bytes cut(sealed.begin(), sealed.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(suite.unprotect(cut, bytes_of("aad")), std::runtime_error) << "len " << len;
  }
}

// Every length from 0 to 100 bytes: each tail of the 4-block decrypt loop
// and each padding length, several times over.
TEST_F(BlowfishSuiteTest, RoundTripEveryLengthTo100) {
  const Bytes aad = bytes_of("group|keyid");
  for (std::size_t n = 0; n <= 100; ++n) {
    Bytes pt(n);
    for (std::size_t i = 0; i < n; ++i) pt[i] = static_cast<std::uint8_t>(i * 13 + n);
    const Bytes sealed = suite.protect(pt, aad, rnd);
    ASSERT_EQ(suite.unprotect(sealed, aad), pt) << "size " << n;
  }
}

TEST_F(BlowfishSuiteTest, EveryBitFlipAndTruncationRejected) {
  const Bytes aad = bytes_of("aad");
  const Bytes sealed = suite.protect(Bytes(45, 0x6B), aad, rnd);
  ASSERT_EQ(sealed.size(), 8u + 20u + 48u);
  for (std::size_t bit = 0; bit < sealed.size() * 8; ++bit) {
    Bytes bad = sealed;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW(suite.unprotect(bad, aad), std::runtime_error) << "bit " << bit;
  }
  for (std::size_t len = 0; len < sealed.size(); ++len) {
    const Bytes cut(sealed.begin(), sealed.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(suite.unprotect(cut, aad), std::runtime_error) << "len " << len;
  }
}

TEST_F(BlowfishSuiteTest, UseBeforeRekeyRejected) {
  BlowfishCbcHmacSuite fresh;
  crypto::HmacDrbg r(2, "x");
  EXPECT_THROW(fresh.protect(bytes_of("m"), {}, r), std::logic_error);
  EXPECT_THROW(fresh.unprotect(Bytes(64, 0), {}), std::logic_error);
}

TEST_F(BlowfishSuiteTest, ShortKeyMaterialRejected) {
  BlowfishCbcHmacSuite fresh;
  EXPECT_THROW(fresh.rekey(Bytes(8, 0)), std::invalid_argument);
}

TEST_F(BlowfishSuiteTest, RekeyChangesCiphertextDomain) {
  const Bytes aad = bytes_of("aad");
  Bytes sealed_old = suite.protect(bytes_of("msg"), aad, rnd);
  suite.rekey(rnd.generate(suite.key_material_size()));
  EXPECT_THROW(suite.unprotect(sealed_old, aad), std::runtime_error);
}

// Sealed bytes under fixed key material, AAD and IV source. The
// iv || tag || ct layout and every byte of it are wire format, so the
// expected values are a recording that a kernel change must reproduce.
// The 1000-byte case is pinned by its SHA-1.
TEST(BlowfishSuitePin, SealedBytesPinned) {
  Bytes key(BlowfishCbcHmacSuite{}.key_material_size());
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i * 7 + 1);
  BlowfishCbcHmacSuite suite;
  suite.rekey(key);
  crypto::HmacDrbg rnd(5, "suite-pin");
  const Bytes aad = bytes_of("pin-group|key-7");
  const std::pair<std::size_t, const char*> cases[] = {
      {0, "c2892d7e82cf647f5825b0a5ebd33336c10512e1a5e53f18c6409fd4163643e3b714a1a7"},
      {7, "ba8cc26a17d365142884f3673e7d8980c3fe755f537043ec43cb26e4c04b88b4a23f230e"},
      {8, "9534a3d8c35d1550745ad6532af8f8b068c45863b459378f77976b2c6d2be4d526294d94"
          "ff82cdebd72493f1"},
      {64, "542083ad1e65188432e35ff0d27c2ff02a9478aa7335d39a23a9eb88beec071b028c8f93"
           "11f0d789101d8344fff4f034ef89c869bf9d14e3cca5953965e09a7eab06f91e4761e5f8"
           "2f2c5ea7608adbd14e35b72ca96bd533fa1ff3ef570a6c15ad9e71ff"},
      {1000, "0564ae98c8d0d261278bdf0c660653f529303a41"},
  };
  for (const auto& [n, pinned] : cases) {
    Bytes pt(n);
    for (std::size_t i = 0; i < n; ++i) pt[i] = static_cast<std::uint8_t>(i * 31 + 5);
    const Bytes sealed = suite.protect(pt, aad, rnd);
    EXPECT_EQ(sealed.size(), 8 + 20 + (n / 8 + 1) * 8) << n << " bytes";
    EXPECT_EQ(n < 100 ? util::to_hex(sealed) : util::to_hex(crypto::Sha1::hash(sealed)), pinned)
        << n << " bytes";
    EXPECT_EQ(suite.unprotect(sealed, aad), pt) << n << " bytes";
  }
}

TEST(NullSuiteTest, PassThrough) {
  NullCipherSuite null;
  crypto::HmacDrbg rnd(3, "null");
  const Bytes pt = bytes_of("clear");
  EXPECT_EQ(null.protect(pt, {}, rnd), pt);
  EXPECT_EQ(null.unprotect(pt, {}), pt);
}

}  // namespace
}  // namespace ss::secure
