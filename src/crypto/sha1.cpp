#include "crypto/sha1.h"

#include <algorithm>

#include "crypto/be32.h"

namespace ss::crypto {

namespace {

using detail::load_be32;
using detail::store_be32;

constexpr std::uint32_t rotl(std::uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

// The boolean function of each 20-round stage (FIPS 180-1 §5).
struct Choose {
  static std::uint32_t f(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
    return d ^ (b & (c ^ d));
  }
};
struct Parity {
  static std::uint32_t f(std::uint32_t b, std::uint32_t c, std::uint32_t d) { return b ^ c ^ d; }
};
struct Majority {
  static std::uint32_t f(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
    return (b & c) | (d & (b | c));
  }
};

// Round T. Instead of shifting five values along, the caller rotates the
// names: this round leaves the new `a` in `e` and the new `c` in `b`. From
// round 16 on, w[T mod 16] is replaced by the schedule word W[T].
template <class F, std::uint32_t K, int T>
inline void round(std::uint32_t a, std::uint32_t& b, std::uint32_t c, std::uint32_t d,
                  std::uint32_t& e, std::uint32_t (&w)[16]) {
  if constexpr (T >= 16) {
    w[T & 15] = rotl(w[(T - 3) & 15] ^ w[(T - 8) & 15] ^ w[(T - 14) & 15] ^ w[T & 15], 1);
  }
  e += rotl(a, 5) + F::f(b, c, d) + K + w[T & 15];
  b = rotl(b, 30);
}

// Five rounds bring the names back to where they started.
template <class F, std::uint32_t K, int T>
inline void five_rounds(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c, std::uint32_t& d,
                        std::uint32_t& e, std::uint32_t (&w)[16]) {
  round<F, K, T>(a, b, c, d, e, w);
  round<F, K, T + 1>(e, a, b, c, d, w);
  round<F, K, T + 2>(d, e, a, b, c, w);
  round<F, K, T + 3>(c, d, e, a, b, w);
  round<F, K, T + 4>(b, c, d, e, a, w);
}

template <class F, std::uint32_t K, int T>
inline void stage(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c, std::uint32_t& d,
                  std::uint32_t& e, std::uint32_t (&w)[16]) {
  five_rounds<F, K, T>(a, b, c, d, e, w);
  five_rounds<F, K, T + 5>(a, b, c, d, e, w);
  five_rounds<F, K, T + 10>(a, b, c, d, e, w);
  five_rounds<F, K, T + 15>(a, b, c, d, e, w);
}

void compress(std::array<std::uint32_t, 5>& h, const std::uint8_t* data, std::size_t blocks) {
  for (; blocks > 0; --blocks, data += Sha1::kBlockSize) {
    std::uint32_t w[16];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    stage<Choose, 0x5A827999u, 0>(a, b, c, d, e, w);
    stage<Parity, 0x6ED9EBA1u, 20>(a, b, c, d, e, w);
    stage<Majority, 0x8F1BBCDCu, 40>(a, b, c, d, e, w);
    stage<Parity, 0xCA62C1D6u, 60>(a, b, c, d, e, w);
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
}

}  // namespace

Sha1::Sha1() { reset(); }

void Sha1::reset() {
  h_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha1::update(const std::uint8_t* data, std::size_t len) {
  total_len_ += len;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, kBlockSize - buffer_len_);
    std::copy_n(data, take, buffer_.data() + buffer_len_);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < kBlockSize) return;
    compress(h_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks are hashed where they lie; only a tail is buffered.
  const std::size_t whole = len / kBlockSize;
  compress(h_, data, whole);
  buffer_len_ = len - whole * kBlockSize;
  std::copy_n(data + whole * kBlockSize, buffer_len_, buffer_.data());
}

std::array<std::uint8_t, Sha1::kDigestSize> Sha1::digest() {
  // 0x80, zeros, then the 64-bit message length, padded in the buffer.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_), buffer_.end(), 0);
    compress(h_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_), buffer_.end() - 8, 0);
  store_be32(buffer_.data() + kBlockSize - 8, static_cast<std::uint32_t>(bit_len >> 32));
  store_be32(buffer_.data() + kBlockSize - 4, static_cast<std::uint32_t>(bit_len));
  compress(h_, buffer_.data(), 1);
  buffer_len_ = 0;

  std::array<std::uint8_t, kDigestSize> out{};
  for (std::size_t i = 0; i < 5; ++i) store_be32(out.data() + 4 * i, h_[i]);
  return out;
}

util::Bytes Sha1::hash(const util::Bytes& data) {
  Sha1 ctx;
  ctx.update(data);
  auto d = ctx.digest();
  return util::Bytes(d.begin(), d.end());
}

}  // namespace ss::crypto
