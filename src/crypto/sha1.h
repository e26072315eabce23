// SHA-1 (FIPS 180-1). Used for HMAC integrity tags and key derivation,
// matching the integrity/KDF toolbox available to the paper's system.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace ss::crypto {

class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;

  Sha1();

  void update(const std::uint8_t* data, std::size_t len);
  void update(const util::Bytes& data) { update(data.data(), data.size()); }

  /// Finishes the hash. The object must not be reused afterwards
  /// without calling reset().
  std::array<std::uint8_t, kDigestSize> digest();

  void reset();

  /// One-shot convenience.
  static util::Bytes hash(const util::Bytes& data);

 private:
  std::array<std::uint32_t, 5> h_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace ss::crypto
