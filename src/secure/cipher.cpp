#include "secure/cipher.h"

#include <stdexcept>

namespace ss::secure {

void BlowfishCbcHmacSuite::rekey(const util::Bytes& key_material) {
  if (key_material.size() < key_material_size()) {
    throw std::invalid_argument("BlowfishCbcHmacSuite: short key material");
  }
  const util::Bytes cipher_key(key_material.begin(), key_material.begin() + kCipherKeyBytes);
  sealer_.emplace(cipher_key, std::span(key_material).subspan(kCipherKeyBytes, kMacKeyBytes));
}

util::Bytes BlowfishCbcHmacSuite::protect(Span plaintext, Span aad, crypto::RandomSource& rnd) {
  if (!sealer_) throw std::logic_error("BlowfishCbcHmacSuite: no key installed");
  return sealer_->seal(plaintext, aad, rnd);
}

util::Bytes BlowfishCbcHmacSuite::unprotect(Span sealed, Span aad) {
  if (!sealer_) throw std::logic_error("BlowfishCbcHmacSuite: no key installed");
  return sealer_->open(sealed, aad);
}

CipherRegistry& CipherRegistry::instance() {
  static CipherRegistry registry = [] {
    CipherRegistry r;
    r.register_suite("blowfish-cbc-hmac", [] { return std::make_unique<BlowfishCbcHmacSuite>(); });
    r.register_suite("null", [] { return std::make_unique<NullCipherSuite>(); });
    return r;
  }();
  return registry;
}

void CipherRegistry::register_suite(const std::string& name, Factory factory) {
  factories_[name] = std::move(factory);
}

std::unique_ptr<CipherSuite> CipherRegistry::create(const std::string& name) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    throw std::out_of_range("CipherRegistry: unknown suite " + name);
  }
  return it->second();
}

}  // namespace ss::secure
