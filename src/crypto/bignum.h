// Arbitrary-precision unsigned integers for the Diffie-Hellman substrate.
//
// The paper's CLQ_API linked OpenSSL's bignum; we implement the same
// functionality from scratch: portable 32-bit limbs, schoolbook/Knuth-D
// arithmetic, Montgomery modular exponentiation with a 4-bit fixed window,
// and Miller-Rabin primality testing.
//
// Every modular exponentiation is recorded in the thread-local ExpTally
// (see exp_counter.h) — that instrumentation is how the benchmark harness
// reproduces the serial-exponentiation counts of Tables 2-4.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/bytes.h"

namespace ss::crypto {

/// Source of random bytes used for key shares and Miller-Rabin bases.
class RandomSource {
 public:
  virtual ~RandomSource() = default;
  virtual void fill(std::uint8_t* out, std::size_t len) = 0;
};

/// Non-negative arbitrary-precision integer. Little-endian 32-bit limbs,
/// always normalized (no high zero limbs; zero has no limbs).
class Bignum {
 public:
  Bignum() = default;
  Bignum(std::uint64_t v);  // NOLINT(google-explicit-constructor): numeric literal interop

  static Bignum from_hex(std::string_view hex);
  /// Big-endian byte import (leading zeros allowed).
  static Bignum from_bytes(const util::Bytes& bytes);

  /// Lowercase hex, no leading zeros ("0" for zero).
  std::string to_hex() const;
  /// Minimal big-endian bytes (empty for zero).
  util::Bytes to_bytes() const;
  /// Big-endian, left-padded to exactly `len` bytes. Throws if it won't fit.
  util::Bytes to_bytes_padded(std::size_t len) const;
  /// Wire field list (util/serial.h): to_bytes() as a length-prefixed string.
  template <class S>
  void fields(S& s) {
    if constexpr (S::kDecoding) {
      util::Bytes b;
      s(b);
      *this = from_bytes(b);
    } else {
      s(to_bytes());
    }
  }

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1u) != 0; }
  bool is_one() const { return limbs_.size() == 1 && limbs_[0] == 1; }
  std::size_t bit_length() const;
  /// Bit i (0 = least significant); out-of-range bits read as 0.
  bool bit(std::size_t i) const;
  /// Value of the low 64 bits.
  std::uint64_t low_u64() const;

  friend bool operator==(const Bignum& a, const Bignum& b) { return a.limbs_ == b.limbs_; }
  friend std::strong_ordering operator<=>(const Bignum& a, const Bignum& b) {
    return Bignum::cmp(a, b);
  }

  friend Bignum operator+(const Bignum& a, const Bignum& b);
  /// Requires a >= b (unsigned arithmetic); throws std::domain_error otherwise.
  friend Bignum operator-(const Bignum& a, const Bignum& b);
  friend Bignum operator*(const Bignum& a, const Bignum& b);
  friend Bignum operator<<(const Bignum& a, std::size_t bits);
  friend Bignum operator>>(const Bignum& a, std::size_t bits);

  /// Quotient and remainder; throws std::domain_error on division by zero.
  static std::pair<Bignum, Bignum> divmod(const Bignum& a, const Bignum& b);
  friend Bignum operator/(const Bignum& a, const Bignum& b) { return divmod(a, b).first; }
  friend Bignum operator%(const Bignum& a, const Bignum& b) { return divmod(a, b).second; }

  /// (a * b) mod m.
  static Bignum mod_mul(const Bignum& a, const Bignum& b, const Bignum& m);
  /// base^exp mod m. Montgomery ladder for odd m; generic fallback otherwise.
  /// Records one exponentiation in the thread-local ExpTally.
  static Bignum mod_exp(const Bignum& base, const Bignum& exp, const Bignum& m);
  /// a^(p-2) mod p — modular inverse for prime p (Fermat). Counts as an exp.
  static Bignum mod_inverse_prime(const Bignum& a, const Bignum& p);

  /// Uniform value in [0, bound) via rejection sampling.
  static Bignum random_below(const Bignum& bound, RandomSource& rnd);
  /// Uniform value in [1, bound-1]; bound must be >= 3.
  static Bignum random_unit(const Bignum& bound, RandomSource& rnd);

  /// Miller-Rabin with `rounds` random bases (plus a base-2 round).
  static bool is_probable_prime(const Bignum& n, int rounds, RandomSource& rnd);

 private:
  friend class MontgomeryCtx;

  static std::strong_ordering cmp(const Bignum& a, const Bignum& b);
  void normalize();

  std::vector<std::uint32_t> limbs_;
};

/// Precomputed context for repeated exponentiation modulo one odd modulus.
/// Used internally by Bignum::mod_exp and directly by DhGroup for speed.
class MontgomeryCtx {
 public:
  /// m must be odd and > 1.
  explicit MontgomeryCtx(const Bignum& m);

  const Bignum& modulus() const { return m_; }

  /// base^exp mod m; records one exponentiation in the ExpTally.
  Bignum mod_exp(const Bignum& base, const Bignum& exp) const;

 private:
  using Limbs = std::vector<std::uint32_t>;

  // t = mont(a, b) = a*b*R^{-1} mod m where R = 2^(32*n_limbs).
  void mont_mul(const Limbs& a, const Limbs& b, Limbs& t) const;
  Limbs to_mont(const Bignum& x) const;
  Bignum from_mont(const Limbs& x) const;

  Bignum m_;
  std::size_t n_ = 0;         // limb count of m
  std::uint32_t n0_inv_ = 0;  // -m^{-1} mod 2^32
  Limbs r2_;                  // R^2 mod m, n_ limbs
};

}  // namespace ss::crypto
