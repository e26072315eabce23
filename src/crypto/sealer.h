// Encrypt-then-MAC sealing with Blowfish-CBC and HMAC-SHA1, the one
// implementation of the `iv || tag || ct` layout. Group payloads
// (secure::BlowfishCbcHmacSuite) and daemon link frames (gcs::LinkCrypto,
// with an empty aad) are both sealed here.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/bignum.h"
#include "crypto/blowfish.h"
#include "crypto/hmac.h"
#include "util/bytes.h"

namespace ss::crypto {

class CbcHmacSealer {
 public:
  static constexpr std::size_t kIvBytes = Blowfish::kBlockSize;
  static constexpr std::size_t kTagBytes = Sha1::kDigestSize;

  /// Throws std::invalid_argument on a cipher key Blowfish rejects.
  CbcHmacSealer(const util::Bytes& cipher_key, std::span<const std::uint8_t> mac_key);

  /// iv || tag || ct with a fresh IV from `rnd`; the tag covers
  /// aad || iv || ct, and `aad` itself is not sent.
  util::Bytes seal(std::span<const std::uint8_t> plaintext, std::span<const std::uint8_t> aad,
                   RandomSource& rnd) const;

  /// Checks the tag over `sealed` in place, in constant time, before any
  /// decryption or padding check, then decrypts from `sealed`. Throws
  /// std::runtime_error on a short input, a bad tag or bad padding.
  util::Bytes open(std::span<const std::uint8_t> sealed, std::span<const std::uint8_t> aad) const;

 private:
  Blowfish cipher_;
  HmacSha1 mac_;
};

}  // namespace ss::crypto
