#include "crypto/blowfish.h"

#include <gtest/gtest.h>

#include <ostream>

#include "crypto/drbg.h"
#include "util/bytes.h"

namespace ss::crypto {
namespace {

using util::Bytes;
using util::bytes_of;
using util::from_hex;
using util::to_hex;

struct EcbVector {
  const char* key;
  const char* plain;
  const char* cipher;
};

// A stable label instead of gtest's raw pointer bytes, which move with ASLR
// and would rename the ctest-discovered tests on every build.
void PrintTo(const EcbVector& v, std::ostream* os) { *os << "key " << v.key; }

class BlowfishEcbKat : public ::testing::TestWithParam<EcbVector> {};

TEST_P(BlowfishEcbKat, EncryptMatches) {
  const auto& v = GetParam();
  Blowfish bf(from_hex(v.key));
  Bytes in = from_hex(v.plain);
  std::uint8_t out[8];
  bf.encrypt_block(in.data(), out);
  EXPECT_EQ(to_hex(out, 8), v.cipher);
}

TEST_P(BlowfishEcbKat, DecryptInverts) {
  const auto& v = GetParam();
  Blowfish bf(from_hex(v.key));
  Bytes ct = from_hex(v.cipher);
  std::uint8_t out[8];
  bf.decrypt_block(ct.data(), out);
  EXPECT_EQ(to_hex(out, 8), v.plain);
}

// Eric Young's published Blowfish ECB test vectors (shipped with SSLeay /
// OpenSSL and linked from Schneier's Blowfish page). These transitively
// validate the pi spigot that generates the P-array and S-boxes.
INSTANTIATE_TEST_SUITE_P(
    Schneier, BlowfishEcbKat,
    ::testing::Values(EcbVector{"0000000000000000", "0000000000000000", "4ef997456198dd78"},
                      EcbVector{"ffffffffffffffff", "ffffffffffffffff", "51866fd5b85ecb8a"},
                      EcbVector{"3000000000000000", "1000000000000001", "7d856f9a613063f2"},
                      EcbVector{"1111111111111111", "1111111111111111", "2466dd878b963c9d"},
                      EcbVector{"0123456789abcdef", "1111111111111111", "61f9c3802281b096"},
                      EcbVector{"fedcba9876543210", "0123456789abcdef", "0aceab0fc6a0a28d"}));

// Eric Young's CBC vector (same source as the ECB vectors above): 28 bytes
// of text and four zero bytes. encrypt_cbc appends a full PKCS#7 block, so
// only the first 32 bytes are the published ciphertext.
TEST(BlowfishTest, CbcKnownAnswer) {
  Blowfish bf(from_hex("0123456789abcdeff0e1d2c3b4a59687"));
  const Bytes iv = from_hex("fedcba9876543210");
  Bytes pt = bytes_of("7654321 Now is the time for ");
  pt.resize(32, 0x00);
  const Bytes ct = bf.encrypt_cbc(iv, pt);
  ASSERT_EQ(ct.size(), 40u);
  EXPECT_EQ(to_hex(Bytes(ct.begin(), ct.begin() + 32)),
            "6b77b4d63006dee605b156e27403979358deb9e7154616d959f1652bd5ff92cc");
  EXPECT_EQ(bf.decrypt_cbc(iv, ct), pt);
}

TEST(BlowfishTest, KeySizeValidation) {
  EXPECT_THROW(Blowfish(Bytes(3, 0)), std::invalid_argument);
  EXPECT_THROW(Blowfish(Bytes(57, 0)), std::invalid_argument);
  EXPECT_NO_THROW(Blowfish(Bytes(4, 0)));
  EXPECT_NO_THROW(Blowfish(Bytes(56, 0)));
}

TEST(BlowfishTest, WordInterfaceRoundTrip) {
  Blowfish bf(bytes_of("roundtrip-key"));
  std::uint32_t l = 0x01234567, r = 0x89abcdef;
  bf.encrypt_block(l, r);
  EXPECT_FALSE(l == 0x01234567 && r == 0x89abcdef);
  bf.decrypt_block(l, r);
  EXPECT_EQ(l, 0x01234567u);
  EXPECT_EQ(r, 0x89abcdefu);
}

TEST(BlowfishTest, CbcRoundTripAllSizes) {
  Blowfish bf(bytes_of("cbc-key-material"));
  const Bytes iv = from_hex("0011223344556677");
  for (std::size_t n = 0; n <= 64; ++n) {
    Bytes pt(n);
    for (std::size_t i = 0; i < n; ++i) pt[i] = static_cast<std::uint8_t>(i * 7 + 3);
    Bytes ct = bf.encrypt_cbc(iv, pt);
    ASSERT_EQ(ct.size() % Blowfish::kBlockSize, 0u);
    ASSERT_GT(ct.size(), pt.size());  // always at least one padding byte
    ASSERT_EQ(bf.decrypt_cbc(iv, ct), pt) << "size " << n;
  }
}

TEST(BlowfishTest, CbcDifferentIvDifferentCiphertext) {
  Blowfish bf(bytes_of("some-key"));
  const Bytes pt = bytes_of("identical plaintext blocks here");
  Bytes c1 = bf.encrypt_cbc(from_hex("0000000000000000"), pt);
  Bytes c2 = bf.encrypt_cbc(from_hex("0000000000000001"), pt);
  EXPECT_NE(c1, c2);
}

TEST(BlowfishTest, CbcChainsAcrossBlocks) {
  // Two identical plaintext blocks must not produce identical ciphertext
  // blocks under CBC.
  Blowfish bf(bytes_of("chaining"));
  Bytes pt(16, 0x42);
  Bytes ct = bf.encrypt_cbc(from_hex("0102030405060708"), pt);
  EXPECT_NE(Bytes(ct.begin(), ct.begin() + 8), Bytes(ct.begin() + 8, ct.begin() + 16));
}

TEST(BlowfishTest, CbcRejectsCorruptPadding) {
  Blowfish bf(bytes_of("padding-key"));
  const Bytes iv = from_hex("8877665544332211");
  Bytes ct = bf.encrypt_cbc(iv, bytes_of("hello"));
  ct.back() ^= 0xFF;  // corrupt final block -> padding check must fail
  EXPECT_THROW(bf.decrypt_cbc(iv, ct), std::runtime_error);
}

TEST(BlowfishTest, CbcRejectsMisalignedCiphertext) {
  Blowfish bf(bytes_of("align-key"));
  const Bytes iv = from_hex("8877665544332211");
  EXPECT_THROW(bf.decrypt_cbc(iv, Bytes(7, 0)), std::runtime_error);
  EXPECT_THROW(bf.decrypt_cbc(iv, Bytes{}), std::runtime_error);
}

TEST(BlowfishTest, BadIvSizeRejected) {
  Blowfish bf(bytes_of("ivsz-key"));
  EXPECT_THROW(bf.encrypt_cbc(Bytes(7, 0), bytes_of("x")), std::invalid_argument);
  EXPECT_THROW(bf.decrypt_cbc(Bytes(9, 0), Bytes(8, 0)), std::invalid_argument);
}

TEST(BlowfishTest, DistinctKeysDistinctCiphertext) {
  const Bytes pt = bytes_of("same plaintext");
  const Bytes iv = from_hex("0000000000000000");
  Blowfish a(bytes_of("key-aaaa"));
  Blowfish b(bytes_of("key-bbbb"));
  EXPECT_NE(a.encrypt_cbc(iv, pt), b.encrypt_cbc(iv, pt));
}

}  // namespace
}  // namespace ss::crypto
