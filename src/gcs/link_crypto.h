// Daemon-to-daemon link protection.
//
// Paper Section 5 (client model discussion): "the daemons must deploy some
// mechanisms to protect against malicious network attackers even in the
// client model" — otherwise an attacker who can rewrite daemon traffic can
// subvert the ordering and membership guarantees the security layer builds
// on. This module provides that mechanism: every link frame is
// encrypted-then-MACed under a pairwise key derived by static Diffie-Hellman
// between the daemons' long-term keys (no handshake needed — a daemon can
// authenticate a peer's very first packet).
//
// The daemon key store plays the same PKI role as cliques::KeyDirectory
// does for clients: in production these would be certified keys from the
// daemon configuration (spread.conf's security section).
#pragma once

#include <map>

#include "crypto/bignum.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/sealer.h"
#include "gcs/types.h"
#include "util/bytes.h"

namespace ss::gcs {

/// Long-term DH key pairs for daemons (the daemon "PKI").
class DaemonKeyStore {
 public:
  explicit DaemonKeyStore(const crypto::DhGroup& group) : group_(group) {}

  /// Generates (or returns) the daemon's key pair.
  void provision(DaemonId daemon, crypto::RandomSource& rnd);
  bool has(DaemonId daemon) const { return keys_.contains(daemon); }
  const crypto::Bignum& public_key(DaemonId daemon) const;
  /// Only the owning daemon may read its private key in real deployments.
  const crypto::Bignum& private_key(DaemonId daemon) const;
  const crypto::DhGroup& group() const { return group_; }

 private:
  const crypto::DhGroup& group_;
  std::map<DaemonId, std::pair<crypto::Bignum, crypto::Bignum>> keys_;  // priv, pub
};

/// Per-daemon sealing of link frames under pairwise static-DH keys.
class LinkCrypto {
 public:
  /// `self` must be provisioned in the store.
  LinkCrypto(const DaemonKeyStore& store, DaemonId self, std::uint64_t seed);

  /// Seals a frame for `peer`. Throws std::out_of_range if the peer has no
  /// provisioned key (unauthorized daemon).
  util::Bytes seal(DaemonId peer, const util::Bytes& frame);

  /// Opens a frame from `peer`; throws std::runtime_error on tampering or
  /// unknown peer.
  util::Bytes open(DaemonId peer, const util::Bytes& sealed);

 private:
  /// The pairwise sealer; frames are sealed with an empty aad.
  const crypto::CbcHmacSealer& sealer_for(DaemonId peer);

  const DaemonKeyStore& store_;
  DaemonId self_;
  crypto::HmacDrbg rnd_;
  std::map<DaemonId, crypto::CbcHmacSealer> peers_;
};

}  // namespace ss::gcs
