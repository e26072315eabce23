#include "gcs/link_crypto.h"

#include <stdexcept>

#include "crypto/exp_counter.h"
#include "crypto/hmac.h"

namespace ss::gcs {

void DaemonKeyStore::provision(DaemonId daemon, crypto::RandomSource& rnd) {
  if (keys_.contains(daemon)) return;
  crypto::detail::ExpTallySuspender suspend;  // infrastructure, not protocol
  crypto::Bignum priv = group_.random_share(rnd);
  crypto::Bignum pub = group_.exp_g(priv);
  keys_.emplace(daemon, std::make_pair(std::move(priv), std::move(pub)));
}

const crypto::Bignum& DaemonKeyStore::public_key(DaemonId daemon) const {
  auto it = keys_.find(daemon);
  if (it == keys_.end()) throw std::out_of_range("DaemonKeyStore: unknown daemon");
  return it->second.second;
}

const crypto::Bignum& DaemonKeyStore::private_key(DaemonId daemon) const {
  auto it = keys_.find(daemon);
  if (it == keys_.end()) throw std::out_of_range("DaemonKeyStore: unknown daemon");
  return it->second.first;
}

LinkCrypto::LinkCrypto(const DaemonKeyStore& store, DaemonId self, std::uint64_t seed)
    : store_(store), self_(self), rnd_(seed, "link-crypto") {
  if (!store_.has(self)) throw std::logic_error("LinkCrypto: self not provisioned");
}

const crypto::CbcHmacSealer& LinkCrypto::sealer_for(DaemonId peer) {
  auto it = peers_.find(peer);
  if (it != peers_.end()) return it->second;

  // Static DH: K = peer_pub ^ self_priv, identical at both ends.
  crypto::detail::ExpTallySuspender suspend;
  const crypto::Bignum shared =
      store_.group().exp(store_.public_key(peer), store_.private_key(self_));
  const util::Bytes ikm = shared.to_bytes();
  return peers_
      .try_emplace(peer, crypto::kdf_sha1(ikm, "link/cipher", 16),
                   crypto::kdf_sha1(ikm, "link/mac", 20))
      .first->second;
}

util::Bytes LinkCrypto::seal(DaemonId peer, const util::Bytes& frame) {
  return sealer_for(peer).seal(frame, {}, rnd_);
}

util::Bytes LinkCrypto::open(DaemonId peer, const util::Bytes& sealed) {
  return sealer_for(peer).open(sealed, {});
}

}  // namespace ss::gcs
