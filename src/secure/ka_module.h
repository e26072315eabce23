// Key-agreement module interface: the pluggable heart of secure Spread
// (paper Section 5.2). A module turns batched View Synchrony membership
// events into key-agreement protocol actions, consumes protocol messages,
// and announces fresh group keys. Modules are chosen per group at join
// time; Cliques (distributed), CKD (centralized) and TGDH (tree-based,
// O(log n) rekey) ship built in, and new modules can be registered at run
// time.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cliques/key_directory.h"
#include "crypto/dh.h"
#include "gcs/types.h"
#include "util/bytes.h"

namespace ss::secure {

/// Protocol message types used by key-agreement modules. Values live in the
/// secure layer's reserved range and are disjoint per module so a module
/// only sees its own traffic.
enum class KaMsgType : std::int16_t {
  kClqHandoff = -31001,
  kClqBroadcast = -31002,
  kClqMergeChain = -31003,
  kClqMergePartial = -31004,
  kClqFactorOut = -31005,
  kCkdRound1 = -31011,
  kCkdRound2 = -31012,
  kCkdKeyDist = -31013,
  kRefreshRequest = -31021,
  kTgdhLeafKey = -31031,
  kTgdhUpdate = -31032,
};

/// Every protocol message type, for exhaustive checks (tests assert each
/// maps to a distinct ka_phase_name). Keep in sync with KaMsgType.
inline constexpr KaMsgType kAllKaMsgTypes[] = {
    KaMsgType::kClqHandoff,      KaMsgType::kClqBroadcast, KaMsgType::kClqMergeChain,
    KaMsgType::kClqMergePartial, KaMsgType::kClqFactorOut, KaMsgType::kCkdRound1,
    KaMsgType::kCkdRound2,       KaMsgType::kCkdKeyDist,   KaMsgType::kRefreshRequest,
    KaMsgType::kTgdhLeafKey,     KaMsgType::kTgdhUpdate,
};

/// Stable span name for a key-agreement protocol message (trace phase
/// labels, e.g. "ka.clq_broadcast"); "ka.message" for unknown types.
inline const char* ka_phase_name(std::int16_t msg_type) {
  switch (static_cast<KaMsgType>(msg_type)) {
    case KaMsgType::kClqHandoff: return "ka.clq_handoff";
    case KaMsgType::kClqBroadcast: return "ka.clq_broadcast";
    case KaMsgType::kClqMergeChain: return "ka.clq_merge_chain";
    case KaMsgType::kClqMergePartial: return "ka.clq_merge_partial";
    case KaMsgType::kClqFactorOut: return "ka.clq_factor_out";
    case KaMsgType::kCkdRound1: return "ka.ckd_round1";
    case KaMsgType::kCkdRound2: return "ka.ckd_round2";
    case KaMsgType::kCkdKeyDist: return "ka.ckd_key_dist";
    case KaMsgType::kRefreshRequest: return "ka.refresh_request";
    case KaMsgType::kTgdhLeafKey: return "ka.tgdh_leaf_key";
    case KaMsgType::kTgdhUpdate: return "ka.tgdh_update";
  }
  return "ka.message";
}

/// One batched membership event (CKCS-style batched rekeying): the newest
/// installed view plus the aggregate membership delta since the module was
/// last handed an event. The host may coalesce several cascaded views into
/// one event; `joined`/`left` are then the net difference — a member that
/// joined and left within the batch appears in neither list, while a member
/// that LEFT AND REJOINED within the batch appears in BOTH (it restarted
/// with fresh state; modules must tear down whatever they still hold for it
/// and re-admit it like any joiner). For a singleton batch
/// (`coalesced == 1`) `joined`/`left` equal the view's own delta, so
/// modules see exactly the classic per-view flow.
struct KaMembershipEvent {
  gcs::GroupView view;
  /// Members of `view` the module has not been handed before (join order).
  std::vector<gcs::MemberId> joined;
  /// Previously handed members that are gone from `view`.
  std::vector<gcs::MemberId> left;
  /// Number of views folded into this event (>= 1).
  std::size_t coalesced = 1;
};

/// What a module wants done after one call (on_membership, on_message or
/// request_refresh). A call is a plain handler: it decodes, picks roles,
/// does its modular exponentiations and returns its actions. The host's
/// contract for a call:
///   - it may run on any thread the host picks (a compute-pool worker or
///     the member's event lane);
///   - the host never runs two calls of one module at once, and reads the
///     module (has_key, session_key, member_secret, ...) only between calls;
///   - it runs to completion even when the host then discards its actions
///     (a newer view superseded it) — equivalent to serial delivery just
///     before that view, so module state stays consistent;
///   - a thrown exception becomes an empty result (the next membership
///     event restarts agreement).
/// Shared state a call reaches beyond its module (KaModuleEnv::directory)
/// is internally synchronized; the DH group is immutable.
struct KaActions {
  struct Unicast {
    gcs::MemberId to;
    std::int16_t msg_type;
    util::Bytes payload;
  };
  struct Multicast {
    std::int16_t msg_type;
    util::Bytes payload;
  };
  std::vector<Unicast> unicasts;
  std::vector<Multicast> multicasts;
  /// A new group key is available via session_key().
  bool key_ready = false;

  void merge(KaActions&& other);
};

class KeyAgreementModule {
 public:
  virtual ~KeyAgreementModule() = default;

  virtual std::string name() const = 0;

  /// A batched membership event: one or more VS views coalesced into a
  /// single membership diff. One event starts (at most) one agreement round.
  virtual KaActions on_membership(const KaMembershipEvent& event) = 0;

  /// A protocol message addressed to this module (multicast delivered under
  /// VS, or unicast pre-filtered by view tag).
  virtual KaActions on_message(const gcs::Message& msg) = 0;

  /// The application asked for a key refresh.
  virtual KaActions request_refresh() = 0;

  /// Key material for the current epoch (only valid after key_ready).
  virtual util::Bytes session_key(std::size_t len) const = 0;
  virtual bool has_key() const = 0;

  /// The member's unique secret contribution to the current group key and
  /// its public commitment g^{secret} — the basis for per-member
  /// authentication (paper Section 2: a member authenticates by its secret
  /// portion of the group secret). Centralized modules (CKD) have no such
  /// contribution and return nullopt — exactly the limitation the paper
  /// ascribes to controller-based key management (Section 2.2).
  virtual std::optional<crypto::Bignum> member_secret() const { return std::nullopt; }
  virtual std::optional<crypto::Bignum> member_commitment() const { return std::nullopt; }

 protected:
  KaActions none() { return {}; }
};

/// Everything a module needs from its host.
struct KaModuleEnv {
  const crypto::DhGroup* dh = nullptr;
  cliques::KeyDirectory* directory = nullptr;
  /// The module's own entropy source, used by nothing else: a call can
  /// still be running on a compute worker while the host is destroyed on
  /// its event lane, so the module keeps its source alive and private.
  std::shared_ptr<crypto::RandomSource> rnd;
  gcs::MemberId self;
};

/// Module registry: key agreement is selected by name per group.
class KaRegistry {
 public:
  using Factory = std::function<std::unique_ptr<KeyAgreementModule>(const KaModuleEnv&)>;

  /// Process-wide registry, preloaded with "cliques", "ckd" and "tgdh".
  static KaRegistry& instance();

  void register_module(const std::string& name, Factory factory);
  std::unique_ptr<KeyAgreementModule> create(const std::string& name,
                                             const KaModuleEnv& env) const;
  bool has(const std::string& name) const { return factories_.count(name) != 0; }
  /// Registered module names, sorted (registry iteration for tests/tools).
  std::vector<std::string> names() const;

 private:
  std::map<std::string, Factory> factories_;
};

}  // namespace ss::secure
