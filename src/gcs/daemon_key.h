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
#include <map>
#include <memory>
#include <optional>

#include "gcs/link_crypto.h"
#include "gcs/types.h"
#include "obs/metrics.h"
#include "runtime/compute.h"
#include "util/bytes.h"

namespace ss::gcs {

/// Per-view daemon group key state for one daemon.
class DaemonKeyAgent {
 public:
  /// `send` transmits a sealed key-distribution body to a peer daemon
  /// (the daemon wires this to its reliable links).
  using SendFn = std::function<void(DaemonId to, const util::Bytes& body)>;

  /// With a non-null `compute`, the coordinator's per-member key sealing
  /// runs off the protocol thread; the completion (send + install) comes
  /// back on the daemon's event lane, guarded against a view that moved on.
  DaemonKeyAgent(const DaemonKeyStore& store, DaemonId self, std::uint64_t seed,
                 SendFn send, runtime::Compute* compute = nullptr);
  ~DaemonKeyAgent();

  /// Called after a view installs. The coordinator (lowest id) generates
  /// and distributes the key; everyone else waits for the distribution.
  void on_view_installed(const ViewId& view, const std::vector<DaemonId>& members);

  /// Handles a key-distribution message from the coordinator.
  void on_key_dist(DaemonId from, const util::Bytes& body);

  /// The current daemon group key (32 bytes), empty while agreeing.
  const util::Bytes& group_key() const { return key_; }
  bool has_key() const { return !key_.empty(); }
  const ViewId& key_view() const { return key_view_; }
  std::uint64_t rekeys() const { return rekeys_.value(); }

  /// Wire format helpers (exposed for tests).
  static util::Bytes encode_dist(const ViewId& view, const util::Bytes& sealed_key);
  static std::pair<ViewId, util::Bytes> decode_dist(const util::Bytes& body);

 private:
  void install_key(const ViewId& view, util::Bytes key);
  /// Coordinator: package the per-member sealing as a compute job.
  void start_seal();
  /// Completion continuation (daemon event lane): drop or apply, then
  /// replay distributions that queued behind the job.
  void finish_seal(const ViewId& view, util::Bytes key,
                   std::vector<std::pair<DaemonId, util::Bytes>> bodies);

  const DaemonKeyStore& store_;
  DaemonId self_;
  crypto::HmacDrbg rnd_;
  /// Shared: in-flight seal jobs capture the channel so it outlives a
  /// daemon stop that races the job. The job has exclusive use while
  /// seal_inflight_ (open()s queue below), so no locking inside.
  std::shared_ptr<LinkCrypto> crypto_;
  SendFn send_;
  runtime::Compute* compute_ = nullptr;
  /// Cleared by the destructor; completions check it before touching this.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  ViewId current_view_;
  std::vector<DaemonId> current_members_;
  util::Bytes key_;
  ViewId key_view_;
  obs::Counter rekeys_;  // gcs.daemon_key.rekeys{daemon=<id>}
  bool seal_inflight_ = false;
  /// Key distributions that arrived while a seal job held the channel.
  std::vector<std::pair<DaemonId, util::Bytes>> pending_dists_;
};

}  // namespace ss::gcs
