#include "crypto/sealer.h"

#include <algorithm>
#include <stdexcept>

namespace ss::crypto {

CbcHmacSealer::CbcHmacSealer(const util::Bytes& cipher_key, std::span<const std::uint8_t> mac_key)
    : cipher_(cipher_key), mac_(mac_key) {}

util::Bytes CbcHmacSealer::seal(std::span<const std::uint8_t> plaintext,
                                std::span<const std::uint8_t> aad, RandomSource& rnd) const {
  util::Bytes out(kIvBytes + kTagBytes + Blowfish::cbc_size(plaintext.size()));
  const auto iv = std::span(out).first(kIvBytes);
  const auto ct = std::span(out).subspan(kIvBytes + kTagBytes);
  rnd.fill(iv.data(), iv.size());
  cipher_.encrypt_cbc(iv.data(), plaintext, ct.data());
  const HmacSha1::Tag tag = mac_.tag({aad, iv, ct});
  std::copy(tag.begin(), tag.end(), out.begin() + kIvBytes);
  return out;
}

util::Bytes CbcHmacSealer::open(std::span<const std::uint8_t> sealed,
                                std::span<const std::uint8_t> aad) const {
  if (sealed.size() < kIvBytes + kTagBytes + Blowfish::kBlockSize) {
    throw std::runtime_error("CbcHmacSealer: sealed input too short");
  }
  const auto iv = sealed.first(kIvBytes);
  const auto tag = sealed.subspan(kIvBytes, kTagBytes);
  const auto ct = sealed.subspan(kIvBytes + kTagBytes);
  if (!util::ct_equal(tag, mac_.tag({aad, iv, ct}))) {
    throw std::runtime_error("CbcHmacSealer: authentication failure");
  }
  return cipher_.decrypt_cbc(iv.data(), ct);
}

}  // namespace ss::crypto
