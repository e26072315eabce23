#include "crypto/blowfish.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "crypto/be32.h"
#include "crypto/pi_spigot.h"

namespace ss::crypto {

namespace {

struct PiBoxes {
  std::array<std::uint32_t, 18> p;
  std::array<std::array<std::uint32_t, 256>, 4> s;
};

// 18 + 4*256 = 1042 words = 8336 hex digits of pi, computed once per process.
const PiBoxes& pi_boxes() {
  static const PiBoxes boxes = [] {
    PiBoxes b;
    const std::string hex = pi_frac_hex((18 + 4 * 256) * 8);
    std::size_t pos = 0;
    auto next_word = [&] {
      std::uint32_t w = 0;
      for (int i = 0; i < 8; ++i) {
        const char c = hex[pos++];
        const std::uint32_t v =
            c <= '9' ? static_cast<std::uint32_t>(c - '0') : static_cast<std::uint32_t>(c - 'a' + 10);
        w = w << 4 | v;
      }
      return w;
    };
    for (auto& w : b.p) w = next_word();
    for (auto& box : b.s) {
      for (auto& w : box) w = next_word();
    }
    return b;
  }();
  return boxes;
}

using detail::load_be32;
using detail::store_be32;

// A key schedule read through local pointers, which the compiler keeps in
// registers across every block of a buffer. Each step is two Feistel
// rounds, so the halves never swap.
struct Rounds {
  Rounds(const std::array<std::uint32_t, 18>& p_array,
         const std::array<std::array<std::uint32_t, 256>, 4>& s)
      : p(p_array.data()), s0(s[0].data()), s1(s[1].data()), s2(s[2].data()), s3(s[3].data()) {}

  std::uint32_t f(std::uint32_t x) const {
    return ((s0[x >> 24] + s1[x >> 16 & 0xFF]) ^ s2[x >> 8 & 0xFF]) + s3[x & 0xFF];
  }

  void encrypt(std::uint32_t& left, std::uint32_t& right) const {
    std::uint32_t l = left, r = right;
    for (int i = 0; i < 16; i += 2) {
      l ^= p[i];
      r ^= f(l);
      r ^= p[i + 1];
      l ^= f(r);
    }
    left = r ^ p[17];
    right = l ^ p[16];
  }

  // Decrypts one block per index in K, in lockstep. One block's rounds form
  // a single chain of dependent S-box loads; independent chains overlap
  // their latency. The folds expand per block at compile time, so every
  // half stays in a register.
  template <std::size_t... K>
  void decrypt(std::array<std::uint32_t, sizeof...(K)>& l,
               std::array<std::uint32_t, sizeof...(K)>& r, std::index_sequence<K...>) const {
    for (int i = 17; i > 1; i -= 2) {
      ((l[K] ^= p[i], r[K] ^= f(l[K])), ...);
      ((r[K] ^= p[i - 1], l[K] ^= f(r[K])), ...);
    }
    ((std::swap(l[K], r[K]), l[K] ^= p[0], r[K] ^= p[1]), ...);
  }

  const std::uint32_t* p;
  const std::uint32_t* s0;
  const std::uint32_t* s1;
  const std::uint32_t* s2;
  const std::uint32_t* s3;
};

// CBC-decrypts N consecutive blocks. CBC decryption has no chain between
// the block decryptions: block k is XORed with ciphertext block k - 1
// (`prev` for the first), which is already known.
template <std::size_t N>
void decrypt_cbc_blocks(const Rounds& rounds, const std::uint8_t* in, const std::uint8_t* prev,
                        std::uint8_t* out) {
  std::array<std::uint32_t, N> l, r;
  for (std::size_t k = 0; k < N; ++k) {
    l[k] = load_be32(in + 8 * k);
    r[k] = load_be32(in + 8 * k + 4);
  }
  rounds.decrypt(l, r, std::make_index_sequence<N>{});
  for (std::size_t k = 0; k < N; ++k) {
    const std::uint8_t* chain = k == 0 ? prev : in + 8 * (k - 1);
    store_be32(out + 8 * k, l[k] ^ load_be32(chain));
    store_be32(out + 8 * k + 4, r[k] ^ load_be32(chain + 4));
  }
}

}  // namespace

Blowfish::Blowfish(const util::Bytes& key) {
  if (key.size() < kMinKeyBytes || key.size() > kMaxKeyBytes) {
    throw std::invalid_argument("Blowfish: key must be 4..56 bytes");
  }
  const PiBoxes& init = pi_boxes();
  p_ = init.p;
  s_ = init.s;

  // XOR the key, cyclically, into the P-array.
  std::size_t k = 0;
  for (auto& p : p_) {
    std::uint32_t chunk = 0;
    for (int i = 0; i < 4; ++i) {
      chunk = chunk << 8 | key[k];
      k = (k + 1) % key.size();
    }
    p ^= chunk;
  }

  // Replace P and S entries with successive encryptions of the zero block.
  std::uint32_t left = 0, right = 0;
  for (std::size_t i = 0; i < p_.size(); i += 2) {
    encrypt_block(left, right);
    p_[i] = left;
    p_[i + 1] = right;
  }
  for (auto& box : s_) {
    for (std::size_t i = 0; i < box.size(); i += 2) {
      encrypt_block(left, right);
      box[i] = left;
      box[i + 1] = right;
    }
  }
}

void Blowfish::encrypt_block(std::uint32_t& left, std::uint32_t& right) const {
  Rounds(p_, s_).encrypt(left, right);
}

void Blowfish::decrypt_block(std::uint32_t& left, std::uint32_t& right) const {
  std::array<std::uint32_t, 1> l{left}, r{right};
  Rounds(p_, s_).decrypt(l, r, std::index_sequence<0>{});
  left = l[0];
  right = r[0];
}

void Blowfish::encrypt_block(const std::uint8_t in[kBlockSize], std::uint8_t out[kBlockSize]) const {
  std::uint32_t l = load_be32(in), r = load_be32(in + 4);
  encrypt_block(l, r);
  store_be32(out, l);
  store_be32(out + 4, r);
}

void Blowfish::decrypt_block(const std::uint8_t in[kBlockSize], std::uint8_t out[kBlockSize]) const {
  std::uint32_t l = load_be32(in), r = load_be32(in + 4);
  decrypt_block(l, r);
  store_be32(out, l);
  store_be32(out + 4, r);
}

util::Bytes Blowfish::encrypt_cbc(const util::Bytes& iv, const util::Bytes& plaintext) const {
  if (iv.size() != kBlockSize) throw std::invalid_argument("Blowfish CBC: bad IV size");
  util::Bytes out(cbc_size(plaintext.size()));
  encrypt_cbc(iv.data(), plaintext, out.data());
  return out;
}

util::Bytes Blowfish::decrypt_cbc(const util::Bytes& iv, const util::Bytes& ciphertext) const {
  if (iv.size() != kBlockSize) throw std::invalid_argument("Blowfish CBC: bad IV size");
  return decrypt_cbc(iv.data(), ciphertext);
}

void Blowfish::encrypt_cbc(const std::uint8_t iv[kBlockSize],
                           std::span<const std::uint8_t> plaintext, std::uint8_t* out) const {
  const Rounds rounds(p_, s_);
  std::uint32_t l = load_be32(iv), r = load_be32(iv + 4);
  auto encrypt = [&](const std::uint8_t* in) {
    l ^= load_be32(in);
    r ^= load_be32(in + 4);
    rounds.encrypt(l, r);
    store_be32(out, l);
    store_be32(out + 4, r);
    out += kBlockSize;
  };
  const std::size_t whole = plaintext.size() / kBlockSize * kBlockSize;
  for (std::size_t off = 0; off < whole; off += kBlockSize) encrypt(plaintext.data() + off);

  // The last block: the plaintext's tail, then PKCS#7 padding.
  std::uint8_t last[kBlockSize];
  const std::size_t tail = plaintext.size() - whole;
  std::copy_n(plaintext.data() + whole, tail, last);
  std::fill(last + tail, last + kBlockSize, static_cast<std::uint8_t>(kBlockSize - tail));
  encrypt(last);
}

util::Bytes Blowfish::decrypt_cbc(const std::uint8_t iv[kBlockSize],
                                  std::span<const std::uint8_t> ciphertext) const {
  if (ciphertext.empty() || ciphertext.size() % kBlockSize != 0) {
    throw std::runtime_error("Blowfish CBC: ciphertext not block aligned");
  }
  util::Bytes out(ciphertext.size());
  const Rounds rounds(p_, s_);
  const std::uint8_t* in = ciphertext.data();
  const std::uint8_t* prev = iv;  // the ciphertext block before in[off]
  std::size_t off = 0;
  for (; off + 4 * kBlockSize <= ciphertext.size(); off += 4 * kBlockSize) {
    decrypt_cbc_blocks<4>(rounds, in + off, prev, out.data() + off);
    prev = in + off + 3 * kBlockSize;
  }
  for (; off < ciphertext.size(); off += kBlockSize) {
    decrypt_cbc_blocks<1>(rounds, in + off, prev, out.data() + off);
    prev = in + off;
  }

  const std::uint8_t pad = out.back();
  if (pad == 0 || pad > kBlockSize || pad > out.size()) {
    throw std::runtime_error("Blowfish CBC: bad padding");
  }
  for (std::size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) throw std::runtime_error("Blowfish CBC: bad padding");
  }
  out.resize(out.size() - pad);
  return out;
}

}  // namespace ss::crypto
