// Deterministic random bit generator (HMAC-DRBG, SP 800-90A structure,
// instantiated with HMAC-SHA1). Implements RandomSource for key shares,
// nonces and IVs.
//
// Determinism matters here: the whole reproduction (simulation, protocol
// runs, benches) is seeded, so every experiment is replayable bit-for-bit.
// Production deployments would seed from OS entropy via seed_from_os().
#pragma once

#include <cstdint>
#include <span>

#include "crypto/bignum.h"
#include "crypto/hmac.h"
#include "util/bytes.h"
#include "util/mutex.h"
#include "util/thread_safety.h"

namespace ss::crypto {

class HmacDrbg final : public RandomSource {
 public:
  /// Instantiates from arbitrary seed material.
  explicit HmacDrbg(const util::Bytes& seed);
  /// Convenience: seed from a 64-bit value plus a personalization string.
  HmacDrbg(std::uint64_t seed, const std::string& personalization);

  HmacDrbg(const HmacDrbg& other);

  /// Thread-safe: the state walk is serialized internally, so one DRBG may
  /// be shared between an event lane and compute workers. The *sequence*
  /// of outputs then depends on call order — deterministic replay needs
  /// deterministic callers (the simulator is single-threaded, so this
  /// never costs sim reproducibility).
  void fill(std::uint8_t* out, std::size_t len) override SS_EXCLUDES(mu_);
  util::Bytes generate(std::size_t len);

  /// Mixes fresh entropy into the state.
  void reseed(const util::Bytes& entropy) SS_EXCLUDES(mu_);

  /// New DRBG seeded from OS entropy (/dev/urandom); throws on failure.
  static HmacDrbg from_os_entropy();

 private:
  // K is kept keyed: the HMAC pads of a key are hashed once when K changes,
  // not once per output block.
  struct State {
    HmacSha1 key;
    HmacSha1::Tag v;
  };

  State locked_state() const SS_EXCLUDES(mu_);
  void update(std::span<const std::uint8_t> data) SS_REQUIRES(mu_);

  mutable util::Mutex mu_;
  State st_ SS_GUARDED_BY(mu_);
};

}  // namespace ss::crypto
