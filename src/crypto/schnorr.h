// Schnorr signatures over the DH group (Fiat-Shamir).
//
// Used for the paper's third security goal (Section 2): "strong
// authentication ... of individual group members", where a member
// authenticates "based on its unique short-term secret, i.e., its secret
// contribution to the common group key". A member signs with its Cliques
// share N_i against the public commitment g^{N_i}; verifiers learn which
// member sent a message, not merely that *some* member did.
//
//   sign(x, m):   k <- [1,q-1];  r = g^k;  e = H(r || y || m) mod q;
//                 s = k + x e mod q;  signature = (e, s)
//   verify(y,m):  r' = g^s * y^{-e};  accept iff H(r' || y || m) mod q == e
#pragma once

#include "crypto/bignum.h"
#include "crypto/dh.h"
#include "util/bytes.h"
#include "util/serial.h"

namespace ss::crypto {

struct SchnorrSignature {
  Bignum challenge;  // e
  Bignum response;   // s

  template <class S>
  void fields(S& s) {
    s(challenge, response);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

/// Signs `message` with secret exponent x (in [1, q-1]) and its public
/// commitment y = g^x (passed in so callers can cache it).
SchnorrSignature schnorr_sign(const DhGroup& group, const Bignum& x, const Bignum& y,
                              const util::Bytes& message, RandomSource& rnd);

/// Verifies against the public key y = g^x. Constant cost (2 exps).
bool schnorr_verify(const DhGroup& group, const Bignum& y, const util::Bytes& message,
                    const SchnorrSignature& sig);

}  // namespace ss::crypto
