// Pluggable bulk-data protection suites (paper Section 5.1/5.2: "drop-in
// replacement of encryption ... modules").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "crypto/bignum.h"
#include "crypto/sealer.h"
#include "util/bytes.h"

namespace ss::secure {

/// Authenticated encryption for group payloads. Implementations derive
/// whatever internal keys they need from the key material supplied by the
/// key-agreement module on every epoch change.
class CipherSuite {
 public:
  using Span = std::span<const std::uint8_t>;

  virtual ~CipherSuite() = default;

  virtual std::string name() const = 0;
  /// Bytes of key material to request from the key-agreement module.
  virtual std::size_t key_material_size() const = 0;
  /// Installs a new epoch key.
  virtual void rekey(const util::Bytes& key_material) = 0;
  /// Encrypt-and-authenticate; `aad` is bound into the tag but not sent.
  virtual util::Bytes protect(Span plaintext, Span aad, crypto::RandomSource& rnd) = 0;
  /// Throws std::runtime_error on authentication failure or malformed input.
  /// `sealed` is read in place (a received util::SharedBytes converts).
  virtual util::Bytes unprotect(Span sealed, Span aad) = 0;
};

/// Blowfish-CBC with HMAC-SHA1 (encrypt-then-MAC) — the paper's bulk cipher
/// plus the integrity MAC it cites. Sealing is crypto::CbcHmacSealer's.
class BlowfishCbcHmacSuite final : public CipherSuite {
 public:
  static constexpr std::size_t kCipherKeyBytes = 16;
  static constexpr std::size_t kMacKeyBytes = 20;

  std::string name() const override { return "blowfish-cbc-hmac"; }
  std::size_t key_material_size() const override { return kCipherKeyBytes + kMacKeyBytes; }
  void rekey(const util::Bytes& key_material) override;
  util::Bytes protect(Span plaintext, Span aad, crypto::RandomSource& rnd) override;
  util::Bytes unprotect(Span sealed, Span aad) override;

 private:
  std::optional<crypto::CbcHmacSealer> sealer_;
};

/// No-op suite for the ablation benchmarks (measures pure GCS cost).
class NullCipherSuite final : public CipherSuite {
 public:
  std::string name() const override { return "null"; }
  std::size_t key_material_size() const override { return 16; }
  void rekey(const util::Bytes&) override {}
  util::Bytes protect(Span plaintext, Span, crypto::RandomSource&) override {
    return util::Bytes(plaintext.begin(), plaintext.end());
  }
  util::Bytes unprotect(Span sealed, Span) override {
    return util::Bytes(sealed.begin(), sealed.end());
  }
};

/// Registry: cipher suites are selected by name per group at join time.
class CipherRegistry {
 public:
  using Factory = std::function<std::unique_ptr<CipherSuite>()>;

  /// The process-wide registry, preloaded with the built-in suites.
  static CipherRegistry& instance();

  void register_suite(const std::string& name, Factory factory);
  /// Throws std::out_of_range for unknown names.
  std::unique_ptr<CipherSuite> create(const std::string& name) const;

 private:
  std::map<std::string, Factory> factories_;
};

}  // namespace ss::secure
