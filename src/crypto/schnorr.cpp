#include "crypto/schnorr.h"

#include "crypto/exp_counter.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"
#include "util/serial.h"

namespace ss::crypto {

namespace {

/// e = H(r || y || m) reduced into [1, q-1] (0 mapped to 1).
Bignum challenge_of(const DhGroup& group, const Bignum& r, const Bignum& y,
                    const util::Bytes& message) {
  util::Writer w;
  w.bytes(r.to_bytes());
  w.bytes(y.to_bytes());
  w.bytes(message);
  // Two SHA-1 blocks of output so the reduction mod q is near-uniform for
  // the group sizes we use.
  const util::Bytes digest = kdf_sha1(w.take(), "schnorr/challenge", 40);
  Bignum e = Bignum::from_bytes(digest) % group.q();
  if (e.is_zero()) e = Bignum(1);
  return e;
}

}  // namespace

SchnorrSignature schnorr_sign(const DhGroup& group, const Bignum& x, const Bignum& y,
                              const util::Bytes& message, RandomSource& rnd) {
  const Bignum k = group.random_share(rnd);
  Bignum r;
  {
    detail::ExpTallySuspender suspend;  // authentication, not key agreement
    r = group.exp_g(k);
  }
  SchnorrSignature sig;
  sig.challenge = challenge_of(group, r, y, message);
  // s = k + x e mod q
  sig.response = (k + group.mul_mod_q(x, sig.challenge)) % group.q();
  return sig;
}

bool schnorr_verify(const DhGroup& group, const Bignum& y, const util::Bytes& message,
                    const SchnorrSignature& sig) {
  if (!group.is_valid_element(y)) return false;
  if (sig.response >= group.q() || sig.challenge >= group.q()) return false;
  detail::ExpTallySuspender suspend;
  // r' = g^s * y^{q - e}  (y^{-e} via the group order)
  const Bignum gs = group.exp_g(sig.response);
  const Bignum y_neg_e = group.exp(y, group.q() - sig.challenge);
  const Bignum r = Bignum::mod_mul(gs, y_neg_e, group.p());
  return challenge_of(group, r, y, message) == sig.challenge;
}

}  // namespace ss::crypto
