// Secure Spread: the client-side secure group communication layer
// (paper Section 5).
//
// Architecture (Figure 2): the application talks to this layer; it runs on
// the Flush layer's View Synchrony over the GCS client. Each group chooses
// its key-agreement module and cipher suite at join time (Section 5.2) —
// different groups may simultaneously use Cliques and CKD. The core is an
// event loop: VS views and protocol messages go to the group's module,
// whose actions (unicasts, multicasts, fresh keys) this layer executes.
//
// Data privacy/integrity: payloads are sealed by the group's cipher suite
// (encrypt-then-MAC) under the current epoch key. Keys are identified on
// the wire by a key id derived from the key material itself, so members
// never need to agree on a counter; a short window of recent keys absorbs
// messages that raced a refresh. Messages are only ever delivered under the
// view they were sent in (VS), so a view change cleanly retires old keys.
//
// Cascading membership events (Section 5.4): every new view aborts any
// agreement in progress and restarts the module against the latest
// membership; stale protocol messages are discarded by view tags.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "cliques/key_directory.h"
#include "crypto/drbg.h"
#include "crypto/exp_counter.h"
#include "flush/flush.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "secure/cipher.h"
#include "secure/ka_module.h"
#include "runtime/compute.h"

namespace ss::secure {

/// Application data messages travel under this flush-level type.
constexpr std::int16_t kSecureDataType = -30001;
/// Internal (sealed) share-commitment announcements for sender
/// authentication; never surfaced to the application.
constexpr std::int16_t kShareCommitType = -30002;

/// A kSecureDataType body: the key id it is sealed under, the application
/// message type and the sealed SignedPayload.
struct DataEnvelope {
  util::Bytes key_id;
  std::int16_t app_type = 0;
  util::SharedBytes sealed;

  template <class S>
  void fields(S& s) {
    s(key_id, app_type, sealed);
  }
};

/// The plaintext inside DataEnvelope::sealed: the sender's encoded
/// crypto::SchnorrSignature when it signs, then the application payload.
/// Sealed from the outbox's buffer (Payload = const Bytes&), opened into
/// its own (Payload = Bytes).
template <class Payload>
struct SignedPayload {
  std::optional<util::Bytes> signature;
  Payload payload;

  template <class S>
  void fields(S& s) {
    s(signature, payload);
  }
};

/// A key-agreement unicast with the view it belongs to (multicasts get the
/// view from VS delivery). Sent from the module's buffer (Payload = const
/// Bytes&), received as a zero-copy slice (Payload = SharedBytes).
template <class Payload>
struct UnicastTag {
  gcs::GroupViewId vid;
  Payload payload;

  template <class S>
  void fields(S& s) {
    s(vid, payload);
  }
};

struct SecureGroupConfig {
  std::string ka_module = "cliques";
  std::string cipher = "blowfish-cbc-hmac";
  /// DH group for the key agreement (ss512 = the paper's modulus size).
  const crypto::DhGroup* dh = &crypto::DhGroup::ss512();
  /// Service level for application data.
  gcs::ServiceType data_service = gcs::ServiceType::kFifo;
  /// If nonzero, this member periodically triggers a key refresh (the
  /// paper's "refresh their key occasionally", Section 5). Typically
  /// enabled on one member per group.
  runtime::Time auto_refresh_interval = 0;
  /// Per-member sender authentication (paper Section 2, third goal): each
  /// message carries a Schnorr signature under the sender's secret
  /// contribution to the group key; the public commitments g^{N_i} are
  /// announced under the group key at every epoch. Requires a contributory
  /// module — with CKD, messages go out unsigned (the paper's stated
  /// limitation of centralized key management, Section 2.2).
  bool authenticate_senders = false;
  /// Batched rekeying (CKCS-style): when nonzero, a view change does not
  /// start key agreement immediately — views arriving within this window
  /// are coalesced into one membership event, so a join+leave storm costs
  /// one rekey round instead of one per view. 0 hands every view to the
  /// module as a singleton batch, transcript-identical to the classic
  /// per-event flow (views still coalesce while a superseded module call
  /// is in flight — those were stale restarts anyway).
  runtime::Time rekey_batch_window = 0;
};

/// Per-group counters: a snapshot of one listed counter per field,
/// secure.<field>{member=<id>} (`rekeys`, every key installed, is listed as
/// secure.keys_installed).
struct SecureGroupStats {
  std::uint64_t sealed = 0;            // messages encrypted and sent
  std::uint64_t opened = 0;            // messages authenticated and delivered
  std::uint64_t dropped_unauthentic = 0;
  std::uint64_t dropped_undecodable = 0;
  std::uint64_t rekeys = 0;
  std::uint64_t auto_refreshes = 0;
  /// Views folded into an already-pending membership batch (each one is a
  /// rekey round the batching saved).
  std::uint64_t coalesced_views = 0;
  /// Early-buffered KA messages evicted because the buffer overflowed (a
  /// dropped protocol message can delay key agreement until a refresh).
  std::uint64_t dropped_early_ka = 0;
};

/// Measurements for one completed key agreement (drives Figures 3-4).
struct RekeyStats {
  std::uint64_t epoch = 0;
  gcs::MembershipReason reason = gcs::MembershipReason::kNetwork;
  std::size_t group_size = 0;
  runtime::Time started_at = 0;
  runtime::Time completed_at = 0;
  /// This member's crypto CPU seconds during the agreement.
  double cpu_seconds = 0;
  /// This member's exponentiations during the agreement.
  crypto::ExpTally exps;
};

/// A decrypted application message.
struct SecureMessage {
  gcs::GroupName group;
  gcs::MemberId sender;
  std::int16_t msg_type = 0;
  util::Bytes plaintext;
  std::uint64_t epoch = 0;
  /// True iff the message carried a valid Schnorr signature under the
  /// sender's announced share commitment (authenticate_senders mode).
  bool authenticated = false;
};

class SecureGroupClient {
 public:
  using MessageFn = std::function<void(const SecureMessage&)>;
  using ViewFn = std::function<void(const gcs::GroupView&)>;
  using RekeyFn = std::function<void(const gcs::GroupName&, const RekeyStats&)>;

  /// `charge_crypto_time=true` advances the simulation clock by the real
  /// CPU time of cryptographic work, so end-to-end virtual latencies include
  /// exponentiation cost (used by the Figure 3 harness).
  SecureGroupClient(gcs::Daemon& daemon, cliques::KeyDirectory& directory, std::uint64_t seed,
                    bool charge_crypto_time = false);
  /// Must run on the client's event lane (like every other entry point):
  /// cancels armed timers and expires the death token so lane-posted
  /// completions of in-flight module calls no-op instead of touching freed
  /// state.
  ~SecureGroupClient();

  const gcs::MemberId& id() const { return fm_.id(); }

  void on_message(MessageFn fn) { on_message_ = std::move(fn); }
  void on_view(ViewFn fn) { on_view_ = std::move(fn); }
  void on_rekey(RekeyFn fn) { on_rekey_ = std::move(fn); }

  /// Joins a secure group with the given module/cipher configuration. A
  /// group already joined (and not left since) is left as it is.
  void join(const gcs::GroupName& group, SecureGroupConfig config = {});
  void leave(const gcs::GroupName& group);
  void disconnect() { fm_.disconnect(); }

  /// Sends private data to the group. Queued until the group key is ready.
  void send(const gcs::GroupName& group, util::Bytes plaintext, std::int16_t msg_type = 0);

  /// Triggers a group key refresh (forwarded to the controller if needed).
  void refresh_key(const gcs::GroupName& group);

  bool has_key(const gcs::GroupName& group) const;
  std::uint64_t key_epoch(const gcs::GroupName& group) const;
  /// Raw key material (tests verify all members agree).
  util::Bytes key_material(const gcs::GroupName& group, std::size_t len) const;
  const gcs::GroupView* current_view(const gcs::GroupName& group) const;
  /// Stats of the most recent completed rekey.
  const std::optional<RekeyStats>& last_rekey(const gcs::GroupName& group) const;
  /// Data-path counters for a group (zeros for unknown groups).
  SecureGroupStats group_stats(const gcs::GroupName& group) const;

 private:
  /// A group's counters, listed under {member=<id>}: one per SecureGroupStats
  /// field, the rekeys reported through on_rekey (secure.rekeys; a key
  /// installed by a refresh another member started is not one), and the
  /// group's key-agreement exponentiations (secure.ka.mod_exps, also
  /// labelled with the module).
  struct GroupCounters {
    GroupCounters(const std::string& member, const std::string& module);
    obs::Counter sealed;
    obs::Counter opened;
    obs::Counter dropped_unauthentic;
    obs::Counter dropped_undecodable;
    obs::Counter keys_installed;  // SecureGroupStats::rekeys
    obs::Counter auto_refreshes;
    obs::Counter coalesced_views;
    obs::Counter dropped_early_ka;
    obs::Counter rekeys;
    obs::Counter mod_exps;
  };

  struct GroupState {
    GroupState(const gcs::MemberId& self, const SecureGroupConfig& cfg)
        : config(cfg), counters(self.to_string(), cfg.ka_module) {}

    SecureGroupConfig config;
    /// Shared: an offloaded module call holds the module so it outlives a
    /// group erase that races the call.
    std::shared_ptr<KeyAgreementModule> ka;
    std::unique_ptr<CipherSuite> cipher;
    util::Bytes key_id;  // current key identifier (8 bytes)
    /// Recent retired ciphers, newest first (absorbs refresh races).
    std::deque<std::pair<util::Bytes, std::unique_ptr<CipherSuite>>> old_ciphers;
    bool key_ready = false;
    std::uint64_t epoch = 0;
    gcs::GroupView view;
    bool have_view = false;

    /// Plaintext queued while no key is available / sends are blocked.
    std::deque<std::pair<std::int16_t, util::Bytes>> outbox;
    /// Ciphertext that arrived before our key (sender keyed first).
    std::deque<gcs::Message> inbox_pending;
    /// KA unicasts that arrived before the view they belong to (unicasts
    /// are not VS-ordered; a peer's round can race our view install).
    /// Replayed on the next view install, bounded to absorb one cascade.
    std::deque<gcs::Message> ka_early;

    // Rekey instrumentation.
    bool in_rekey = false;
    runtime::Time rekey_start = 0;
    double cpu_acc = 0;
    crypto::ExpTally exp_acc;
    std::optional<RekeyStats> last_rekey;
    // Open from agreement (re)start to key installation; KA phase spans
    // nest inside it on the same lane. Cascades restart it, the destructor
    // closes it on leave/teardown.
    obs::SpanHandle rekey_span;

    GroupCounters counters;
    runtime::TimerId refresh_timer = 0;
    bool refresh_timer_armed = false;
    /// leave() was called: the next self-leave view ends this incarnation.
    bool leaving = false;

    // Module-call bookkeeping. Generations are client-wide monotonic, so a
    // completion can never match a different incarnation of the group.
    /// Bumped on every view change, which supersedes any call in flight;
    /// its completion is dropped on mismatch.
    std::uint64_t ka_generation = 0;
    /// Generation of the module call in flight (0 = none). While nonzero
    /// the module is off limits: invocations queue below.
    std::uint64_t inflight_generation = 0;
    /// Module invocations queued behind the call in flight (per-group
    /// serialization; cleared on view change — stale anyway).
    std::deque<std::function<void()>> pending_invocations;

    // Batched-rekey state: membership as last handed to the module, and
    // the folded batch a window timer or an in-flight call is holding back.
    /// Members the module was last handed (empty before the first event).
    std::vector<gcs::MemberId> handed_members;
    bool handed_any = false;
    std::optional<KaMembershipEvent> pending_batch;
    /// Members that departed at ANY view folded into the pending batch. A
    /// member that leaves and rejoins within the window cancels out of the
    /// endpoint diff, yet it restarted with fresh module state — it must be
    /// forced into both `left` and `joined` of the flushed event.
    std::vector<gcs::MemberId> batch_departed;
    runtime::TimerId batch_timer = 0;
    bool batch_timer_armed = false;

    /// Sender-authentication state (authenticate_senders mode): announced
    /// commitments g^{N_sender}, keyed by the key id they were sealed under.
    std::map<gcs::MemberId, std::pair<util::Bytes, crypto::Bignum>> commitments;
    std::optional<crypto::Bignum> my_secret;
    std::optional<crypto::Bignum> my_commitment;
  };

  void handle_view(const gcs::GroupView& view);
  void handle_message(const gcs::Message& msg);
  /// Folds `view` into the group's pending membership batch (creating it if
  /// none), recomputing the aggregate joined/left diff against the
  /// membership last handed to the module.
  void fold_into_batch(GroupState& st, const gcs::GroupView& view);
  /// Hands the pending batch to the module as one membership event, unless
  /// a call is in flight (its completion flushes then) or the batch window
  /// is still open.
  void flush_batch(const gcs::GroupName& group);
  /// Replays KA unicasts buffered ahead of their view (see ka_early).
  void replay_early_unicasts(const gcs::GroupName& group);
  /// Buffers a KA message for later replay (see ka_early), evicting the
  /// oldest — logged and counted in stats — when the buffer is full.
  void buffer_early_ka(GroupState& st, const gcs::Message& msg);
  /// Runs one module call through the env's Compute (on a pool worker
  /// when the env has a pool, inline otherwise), inside one
  /// crypto::ComputeJob and one secure.ka span named `phase` (e.g.
  /// "ka.clq_broadcast") whose end carries the call's CPU time and
  /// per-purpose mod-exps. The completion, on this client's lane, drops a
  /// result a newer view superseded, books the call's CPU and
  /// exponentiations, applies its actions, then flushes a pending batch
  /// and drains invocations that queued behind the call. Callers check
  /// that no call is in flight for the group (run_or_queue, flush_batch).
  void invoke(const gcs::GroupName& group, GroupState& st, const char* phase,
              std::function<KaActions(KeyAgreementModule&)> call);
  /// (Re)opens the rekey span for `group` (cascade restarts included).
  void begin_rekey_span(const gcs::GroupName& group, GroupState& st);
  /// Trace lane shared by this member's rekey + KA phase spans for `group`.
  std::uint64_t rekey_lane(const gcs::GroupName& group) const {
    return obs::trace_lane(2, fm_.id().client, group);
  }
  void dispatch(const gcs::GroupName& group, GroupState& st, const KaActions& actions);
  /// Runs a module invocation now, or queues it while a call is in flight.
  void run_or_queue(GroupState& st, std::function<void()> fn);
  void drain_queue(const gcs::GroupName& group);
  void apply_new_key(const gcs::GroupName& group, GroupState& st);
  void flush_outbox(const gcs::GroupName& group, GroupState& st);
  void deliver_ciphertext(GroupState& st, const gcs::Message& msg, bool buffer_unknown);
  void arm_refresh_timer(const gcs::GroupName& group, GroupState& st);
  void cancel_timers(GroupState& st);
  static util::Bytes make_aad(const gcs::GroupName& group, const util::Bytes& key_id);

  flush::FlushMailbox fm_;
  cliques::KeyDirectory& directory_;
  crypto::HmacDrbg rnd_;
  runtime::Clock& clock_;
  /// Runs module calls: the daemon Env's Compute (inline unless the env
  /// has a worker pool).
  runtime::Compute& compute_;
  bool charge_crypto_time_;
  std::uint64_t next_generation_ = 1;
  /// Death token: call completions are posted back to this client's lane
  /// as timers and hold a weak_ptr to this. The destructor (which runs on
  /// the same lane, so expiry is observed race-free) resets it, turning any
  /// continuation that fires afterwards into a no-op.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  std::map<gcs::GroupName, GroupState> groups_;
  MessageFn on_message_;
  ViewFn on_view_;
  RekeyFn on_rekey_;
};

}  // namespace ss::secure
