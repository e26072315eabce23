// HMAC-SHA1 (RFC 2104) — the paper cites HMAC as its data-integrity MAC.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>

#include "crypto/sha1.h"
#include "util/bytes.h"

namespace ss::crypto {

/// HMAC-SHA1 under one key. The constructor hashes the key's ipad and opad
/// blocks once and keeps both SHA-1 states; each tag resumes copies of
/// them, so it costs its message blocks plus two final blocks.
class HmacSha1 {
 public:
  using Tag = std::array<std::uint8_t, Sha1::kDigestSize>;

  explicit HmacSha1(std::span<const std::uint8_t> key);

  /// The tag of the concatenation of `parts`.
  Tag tag(std::initializer_list<std::span<const std::uint8_t>> parts) const;

 private:
  Sha1 inner_;  // has absorbed key ^ ipad
  Sha1 outer_;  // has absorbed key ^ opad
};

/// HMAC-SHA1 of `data` under a one-off `key`. 20-byte tag.
util::Bytes hmac_sha1(const util::Bytes& key, const util::Bytes& data);

/// Simple extract-and-expand KDF built from HMAC-SHA1 (HKDF-style).
/// Derives `len` bytes from input keying material and a context label.
/// Used to turn a Diffie-Hellman group secret into cipher and MAC keys.
util::Bytes kdf_sha1(const util::Bytes& ikm, const std::string& label, std::size_t len);

}  // namespace ss::crypto
