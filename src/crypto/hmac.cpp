#include "crypto/hmac.h"

#include <algorithm>

namespace ss::crypto {

HmacSha1::HmacSha1(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, Sha1::kBlockSize> pad{};
  if (key.size() > Sha1::kBlockSize) {
    Sha1 h;
    h.update(key.data(), key.size());
    const auto d = h.digest();
    std::copy(d.begin(), d.end(), pad.begin());
  } else {
    std::copy(key.begin(), key.end(), pad.begin());
  }
  for (auto& b : pad) b ^= 0x36;
  inner_.update(pad.data(), pad.size());
  for (auto& b : pad) b ^= 0x36 ^ 0x5C;
  outer_.update(pad.data(), pad.size());
}

HmacSha1::Tag HmacSha1::tag(std::initializer_list<std::span<const std::uint8_t>> parts) const {
  Sha1 inner = inner_;
  for (const auto part : parts) inner.update(part.data(), part.size());
  const auto inner_digest = inner.digest();
  Sha1 outer = outer_;
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.digest();
}

util::Bytes hmac_sha1(const util::Bytes& key, const util::Bytes& data) {
  const HmacSha1::Tag t = HmacSha1(key).tag({data});
  return util::Bytes(t.begin(), t.end());
}

util::Bytes kdf_sha1(const util::Bytes& ikm, const std::string& label, std::size_t len) {
  // Extract with a fixed salt, then expand in counter mode (HKDF structure):
  // T(i) = HMAC(prk, T(i-1) || label || i), with T(0) empty.
  const HmacSha1 prk(HmacSha1(util::bytes_of("secure-spread/kdf/v1")).tag({ikm}));
  const util::Bytes info = util::bytes_of(label);

  util::Bytes out;
  HmacSha1::Tag t{};
  std::span<const std::uint8_t> prev;
  for (std::uint8_t counter = 1; out.size() < len; ++counter) {
    t = prk.tag({prev, info, {&counter, 1}});
    out.insert(out.end(), t.begin(), t.end());
    prev = t;
  }
  out.resize(len);
  return out;
}

}  // namespace ss::crypto
