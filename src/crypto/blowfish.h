// Blowfish block cipher (Schneier, 1994) — the bulk cipher the paper's
// secure Spread used. 64-bit blocks, 16 rounds, variable key 4..56 bytes.
//
// The P-array and S-boxes are initialized from hex digits of pi produced by
// our own spigot (see pi_spigot.h) and the whole pipeline is validated
// against Schneier's published ECB test vectors in the unit tests.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.h"

namespace ss::crypto {

class Blowfish {
 public:
  static constexpr std::size_t kBlockSize = 8;
  static constexpr std::size_t kMinKeyBytes = 4;
  static constexpr std::size_t kMaxKeyBytes = 56;

  /// Key schedule; throws std::invalid_argument on out-of-range key size.
  explicit Blowfish(const util::Bytes& key);

  void encrypt_block(std::uint32_t& left, std::uint32_t& right) const;
  void decrypt_block(std::uint32_t& left, std::uint32_t& right) const;

  /// ECB on a single 8-byte block (test vectors / building block).
  void encrypt_block(const std::uint8_t in[kBlockSize], std::uint8_t out[kBlockSize]) const;
  void decrypt_block(const std::uint8_t in[kBlockSize], std::uint8_t out[kBlockSize]) const;

  /// CBC with PKCS#7 padding. IV must be kBlockSize bytes.
  util::Bytes encrypt_cbc(const util::Bytes& iv, const util::Bytes& plaintext) const;
  /// Throws std::runtime_error on bad padding or non-block-aligned input.
  util::Bytes decrypt_cbc(const util::Bytes& iv, const util::Bytes& ciphertext) const;

  /// Ciphertext bytes for `plaintext_len` bytes: padding adds 1..8.
  static constexpr std::size_t cbc_size(std::size_t plaintext_len) {
    return (plaintext_len / kBlockSize + 1) * kBlockSize;
  }
  /// CBC-encrypts into `out`, which has room for cbc_size(plaintext.size()).
  void encrypt_cbc(const std::uint8_t iv[kBlockSize], std::span<const std::uint8_t> plaintext,
                   std::uint8_t* out) const;
  util::Bytes decrypt_cbc(const std::uint8_t iv[kBlockSize],
                          std::span<const std::uint8_t> ciphertext) const;

 private:
  std::array<std::uint32_t, 18> p_;
  std::array<std::array<std::uint32_t, 256>, 4> s_;
};

}  // namespace ss::crypto
