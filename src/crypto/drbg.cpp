#include "crypto/drbg.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "crypto/sha1.h"

namespace ss::crypto {

HmacDrbg::HmacDrbg(const util::Bytes& seed)
    : st_{HmacSha1(util::Bytes(Sha1::kDigestSize, 0x00)), {}} {
  util::MutexLock lk(mu_);  // uncontended; satisfies the analysis
  st_.v.fill(0x01);
  update(seed);
}

HmacDrbg::HmacDrbg(const HmacDrbg& other) : st_(other.locked_state()) {}

HmacDrbg::HmacDrbg(std::uint64_t seed, const std::string& personalization)
    : HmacDrbg([&] {
        util::Bytes s;
        for (int i = 56; i >= 0; i -= 8) s.push_back(static_cast<std::uint8_t>(seed >> i));
        s.insert(s.end(), personalization.begin(), personalization.end());
        return s;
      }()) {}

HmacDrbg::State HmacDrbg::locked_state() const {
  util::MutexLock lk(mu_);
  return st_;
}

void HmacDrbg::update(std::span<const std::uint8_t> data) {
  const std::uint8_t zero = 0x00, one = 0x01;
  st_.key = HmacSha1(st_.key.tag({st_.v, {&zero, 1}, data}));
  st_.v = st_.key.tag({st_.v});
  if (!data.empty()) {
    st_.key = HmacSha1(st_.key.tag({st_.v, {&one, 1}, data}));
    st_.v = st_.key.tag({st_.v});
  }
}

void HmacDrbg::fill(std::uint8_t* out, std::size_t len) {
  util::MutexLock lk(mu_);
  std::size_t produced = 0;
  while (produced < len) {
    st_.v = st_.key.tag({st_.v});
    const std::size_t take = std::min(len - produced, st_.v.size());
    std::copy_n(st_.v.begin(), take, out + produced);
    produced += take;
  }
  update({});
}

util::Bytes HmacDrbg::generate(std::size_t len) {
  util::Bytes out(len);
  fill(out.data(), out.size());
  return out;
}

void HmacDrbg::reseed(const util::Bytes& entropy) {
  util::MutexLock lk(mu_);
  update(entropy);
}

HmacDrbg HmacDrbg::from_os_entropy() {
  util::Bytes seed(48);
  std::FILE* f = std::fopen("/dev/urandom", "rb");
  if (f == nullptr) throw std::runtime_error("HmacDrbg: cannot open /dev/urandom");
  const std::size_t got = std::fread(seed.data(), 1, seed.size(), f);
  std::fclose(f);
  if (got != seed.size()) throw std::runtime_error("HmacDrbg: short read from /dev/urandom");
  return HmacDrbg(seed);
}

}  // namespace ss::crypto
