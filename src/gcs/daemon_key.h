// Daemon-model group keying (paper Sections 5 and 8).
//
// The paper's "daemon model" discussion argues that keying the *daemons*
// instead of every client group would drastically reduce key agreements:
// daemons are long-lived, so their membership changes (crashes, partitions,
// merges) are far rarer than client group churn. Section 8 names this the
// next step: "integrate Cliques security mechanisms into the Spread
// daemons".
//
// This module implements that step. After every installed daemon view, the
// view coordinator derives a fresh daemon group key and distributes it to
// each member sealed under their pairwise static-DH link keys (one
// broadcast, no extra rounds — the pairwise keys double as the
// authenticated channel, exactly the CKD pattern with precomputed pairwise
// secrets). The key identifies itself by a digest, and every daemon exposes
// it via Daemon::daemon_group_key().
//
// The benchmark bench_ablation_daemon_model quantifies the rekey-frequency
// argument: client-model rekeys scale with group churn, daemon-model rekeys
// only with daemon membership changes.
#pragma once

#include <functional>
#include <vector>

#include "gcs/link_crypto.h"
#include "gcs/types.h"
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/serial.h"

namespace ss::gcs {

/// Key distribution (coordinator -> one member): the view the key belongs
/// to and the key sealed under the pair's static-DH channel.
struct KeyDistMsg {
  ViewId view;
  util::Bytes sealed_key;

  template <class S>
  void fields(S& s) {
    s(view, sealed_key);
  }
};

/// Per-view daemon group key state for one daemon.
class DaemonKeyAgent {
 public:
  /// `send` transmits a sealed key-distribution body to a peer daemon
  /// (the daemon wires this to its reliable links).
  using SendFn = std::function<void(DaemonId to, const util::Bytes& body)>;

  /// The coordinator seals inline: after the first seal per peer (one
  /// cached static DH), a seal is Blowfish-CBC + HMAC-SHA1 of 32 bytes.
  DaemonKeyAgent(const DaemonKeyStore& store, DaemonId self, std::uint64_t seed,
                 SendFn send);

  /// Called after a view installs. The coordinator (lowest id) generates
  /// and distributes the key; everyone else waits for the distribution.
  void on_view_installed(const ViewId& view, const std::vector<DaemonId>& members);

  /// Handles a key-distribution message (a KeyDistMsg) from the coordinator.
  void on_key_dist(DaemonId from, const util::SharedBytes& body);

  /// The current daemon group key (32 bytes), empty while agreeing.
  const util::Bytes& group_key() const { return key_; }
  bool has_key() const { return !key_.empty(); }
  const ViewId& key_view() const { return key_view_; }
  std::uint64_t rekeys() const { return rekeys_.value(); }

  /// A KeyDistMsg's encoding.
  static util::Bytes encode_dist(const ViewId& view, const util::Bytes& sealed_key);

 private:
  /// The view's coordinator: its lowest daemon id.
  DaemonId coordinator() const;
  void install_key(const ViewId& view, util::Bytes key);

  DaemonId self_;
  crypto::HmacDrbg rnd_;
  LinkCrypto crypto_;
  SendFn send_;

  ViewId current_view_;
  std::vector<DaemonId> current_members_;
  util::Bytes key_;
  ViewId key_view_;
  obs::Counter rekeys_;  // gcs.daemon_key.rekeys{daemon=<id>}
};

}  // namespace ss::gcs
