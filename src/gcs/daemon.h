// The group-communication daemon: Spread-equivalent substrate.
//
// Each Daemon is one node on the simulated network. Daemons form a
// heavyweight membership (Extended Virtual Synchrony configurations) via a
// coordinator-based gather / state-exchange / install protocol with message
// recovery, and host lightweight process groups on top of it, exactly
// mirroring Spread's daemon-client architecture (paper Section 3):
//
//   - process join/leave is a single agreed-ordered message,
//   - daemon connectivity changes (partitions/merges) pay the full
//     membership-change cost with state exchange and message recovery.
//
// Delivery guarantees within an installed view:
//   - all services: per-sender FIFO,
//   - kCausal: vector-clock causality (Birman-Schiper-Stephenson),
//   - kAgreed: single total order (per-view sequencer = lowest daemon id),
//   - kSafe: total order + stability (all view members hold the message).
//
// Across view changes our recovery is *stricter* than EVS requires: all
// members that install the next view together first deliver an identical
// set of old-view messages in an identical order (the agreed prefix by
// stamp, then a deterministic tail). This gives the flush layer and the
// security layer the "same messages between views" property they rely on.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "gcs/config.h"
#include "gcs/failure_detector.h"
#include "gcs/link.h"
#include "gcs/daemon_key.h"
#include "gcs/link_crypto.h"
#include "gcs/types.h"
#include "gcs/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/env.h"
#include "util/rng.h"

namespace ss::gcs {

/// Callbacks a connected client (Mailbox) receives. Invoked asynchronously
/// (scheduled with the configured IPC delay), never re-entrantly.
class ClientCallbacks {
 public:
  virtual ~ClientCallbacks() = default;
  virtual void deliver_message(const Message& msg) = 0;
  virtual void deliver_view(const GroupView& view) = 0;
  /// EVS transitional signal for a group (delivered before the view that
  /// follows a daemon-level membership change).
  virtual void deliver_transitional(const GroupName& group) = 0;
};

struct DaemonStats {
  std::uint64_t views_installed = 0;
  std::uint64_t gathers_started = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t control_changes = 0;
  std::uint64_t recovered_messages = 0;
  std::uint64_t retrans_served = 0;
};

class Daemon : public runtime::PacketSink {
 public:
  /// `env.self` must be the NodeId this daemon registers as on the
  /// transport; the Env (clock + transport) must outlive the daemon.
  /// `configured` is the static daemon list (spread.conf equivalent).
  /// If `key_store` is non-null, all daemon-to-daemon traffic is sealed
  /// under pairwise static-DH keys (paper Section 5: the daemons protect
  /// their ordering/membership traffic from network attackers). The store
  /// must outlive the daemon; this daemon is provisioned automatically.
  Daemon(const runtime::Env& env, std::vector<DaemonId> configured, TimingConfig timing,
         std::uint64_t seed, DaemonKeyStore* key_store = nullptr);
  ~Daemon() override;

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // --- lifecycle -----------------------------------------------------------
  /// Boots the daemon: installs a singleton view and starts heartbeats.
  void start();
  /// Stops cleanly (peers discover via failure detection).
  void stop();
  /// Simulates a crash: all state lost, clients gone. Also marks the network
  /// node down. recover() via start() after net.recover().
  void crash();
  bool running() const { return state_ != DState::kDown; }

  // --- runtime::PacketSink -------------------------------------------------
  void on_packet(runtime::NodeId from, const util::Frame& payload) override;

  // --- client interface (used by gcs::Mailbox) -----------------------------
  MemberId attach_client(ClientCallbacks* cb);
  /// graceful=true sends leaves for all joined groups; false simulates a
  /// client crash (disconnect reason at other members).
  void detach_client(const MemberId& id, bool graceful);
  void client_join(const MemberId& id, const GroupName& group);
  void client_leave(const MemberId& id, const GroupName& group);
  void client_multicast(const MemberId& id, ServiceType service, const GroupName& group,
                        std::int16_t msg_type, util::SharedBytes payload);
  void client_unicast(const MemberId& from, const MemberId& to, const GroupName& group,
                      std::int16_t msg_type, util::SharedBytes payload);

  // --- introspection -------------------------------------------------------
  DaemonId id() const { return self_; }
  runtime::Clock& clock() { return clock_; }
  /// Crypto offload executor inherited from the daemon's Env.
  runtime::Compute& compute() { return compute_; }
  /// The environment this daemon runs in (for co-located components).
  runtime::Env env() { return runtime::Env{&clock_, &net_, self_, &compute_}; }
  const ViewId& view() const { return view_id_; }
  const std::vector<DaemonId>& view_members() const { return view_members_; }
  bool is_operational() const { return state_ == DState::kOperational; }
  /// Snapshot of this daemon's counters (they survive crash and restart).
  DaemonStats stats() const;
  /// One-line dump of the membership/delivery/link state machines, for test
  /// and incident diagnostics. Call from the daemon's own lane.
  std::string debug_state() const;
  /// Number of messages the current view's store still holds (delivered
  /// messages stay until every view member has received them). Call from
  /// the daemon's own lane.
  std::size_t stored_messages() const;
  /// Encrypted-link statistics (0 when link crypto is off).
  std::uint64_t link_frames_rejected() const {
    return links_ ? links_->frames_rejected() : 0;
  }
  /// Daemon-model group key (empty when link crypto is off or while the
  /// post-view distribution is in flight). See gcs/daemon_key.h.
  util::Bytes daemon_group_key() const {
    return key_agent_ && key_agent_->has_key() ? key_agent_->group_key() : util::Bytes{};
  }
  /// Number of daemon-model rekeys this daemon has performed.
  std::uint64_t daemon_rekeys() const { return key_agent_ ? key_agent_->rekeys() : 0; }
  /// Current member list of a group as this daemon knows it (oldest first).
  std::vector<MemberId> group_members(const GroupName& group) const;

 private:
  enum class DState : std::uint8_t {
    kDown,
    kOperational,  // view installed, delivering
    kGather,       // collecting candidates
    kExchange,     // proposal seen, state sent, awaiting install
    kRecover,      // install received, completing the recovery plan
  };

  struct StoredMsg {
    DataMsg msg;
    // Not implied by delivered_high: recovery delivers the stamped suffix
    // before the unstamped remainder, out of per-sender order.
    bool delivered = false;
  };

  /// All per-view ordering/delivery state.
  struct ViewContext {
    ViewId id;
    std::vector<DaemonId> members;
    DaemonId sequencer = kInvalidDaemon;

    std::uint64_t my_next_seq = 1;  // next per-sender seq I assign
    std::map<DaemonId, std::uint64_t> recv_high;  // contiguous receipt per sender
    std::map<DaemonId, std::uint64_t> delivered_high;  // contiguous delivery per sender
    std::map<std::pair<DaemonId, std::uint64_t>, StoredMsg> store;
    // All-received line: per sender, the highest seq erased from `store`
    // because every view member had received it (trim_store).
    std::map<DaemonId, std::uint64_t> trimmed_high;

    // Agreed/safe ordering.
    std::uint64_t next_gseq = 1;     // sequencer's allocator
    std::map<std::uint64_t, std::pair<DaemonId, std::uint64_t>> stamps;
    std::map<std::pair<DaemonId, std::uint64_t>, std::uint64_t> stamp_of;
    std::uint64_t delivered_gseq = 0;
    std::uint64_t contig_gseq = 0;  // stamps+data present contiguously (stability input)

    // Causal (BSS) state.
    std::uint64_t my_causal_sent = 0;
    std::map<DaemonId, std::uint64_t> causal_delivered;

    // Stability (for kSafe) and trimming: per-peer contiguous gseq and
    // per-peer, per-sender contiguous receipt, from this view's heartbeats.
    std::map<DaemonId, std::uint64_t> peer_contig_gseq;
    std::map<DaemonId, std::map<DaemonId, std::uint64_t>> peer_received;

    // Group-change stamping within this view.
    std::uint64_t last_change_gseq = 0;

    bool frozen = false;  // state exchanged; no more deliveries in this view
  };

  struct PendingSend {
    ServiceType service;
    bool control;
    GroupName group;
    MemberId origin;
    std::int16_t msg_type;
    util::SharedBytes payload;
  };

  struct LocalClient {
    ClientCallbacks* cb = nullptr;
    bool connected = false;
    std::set<GroupName> joined;
  };

  // --- membership engine (daemon_membership.cpp) ---------------------------
  void trigger_gather();
  void on_fd_change();
  void on_gather_announce(DaemonId from, const GatherAnnounceMsg& msg);
  void announce_gather();
  void maybe_propose();
  void on_proposal(DaemonId from, const ProposalMsg& msg);
  void send_state_exchange(const ViewId& proposed, DaemonId coordinator);
  void on_state_exchange(DaemonId from, const StateExchangeMsg& msg);
  void maybe_install();
  void on_install(DaemonId from, const InstallMsg& msg);
  void continue_recovery();
  void finish_recovery_and_install();
  void on_retrans_req(DaemonId from, const RetransReqMsg& msg);
  void on_retrans_data(DaemonId from, const RetransDataMsg& msg);
  void install_view(const ViewId& id, const std::vector<DaemonId>& members,
                    const GroupTable& merged);
  void apply_group_table(const GroupTable& merged, const std::vector<DaemonId>& members);

  // --- data path (daemon_delivery.cpp) -------------------------------------
  void on_data(const DataMsg& msg);
  void on_order_stamp(const OrderStampMsg& msg);
  void store_message(ViewContext& ctx, const DataMsg& msg);
  void try_deliver(ViewContext& ctx);
  /// Erases what every view member has received and this daemon has
  /// delivered (the all-received line). Runs once per heartbeat interval.
  void trim_store(ViewContext& ctx);
  bool deliverable(const ViewContext& ctx, const StoredMsg& sm) const;
  void deliver_now(ViewContext& ctx, StoredMsg& sm);
  void deliver_to_clients(const DataMsg& msg);
  void apply_group_change(const DataMsg& msg);
  void update_contig_gseq(ViewContext& ctx);
  void flush_pending_sends();
  void multicast_data(PendingSend ps);
  void deliver_group_view(const GroupName& group, MembershipReason reason,
                          const std::vector<MemberId>& joined, const std::vector<MemberId>& left,
                          const std::optional<MemberId>& self_leaver);

  // --- observability (daemon.cpp) -------------------------------------------
  /// One counter per DaemonStats field, listed as gcs.daemon.*{daemon=<id>}.
  struct Counters {
    explicit Counters(const obs::Labels& labels);
    obs::Counter views_installed;
    obs::Counter gathers_started;
    obs::Counter messages_delivered;
    obs::Counter control_changes;
    obs::Counter recovered_messages;
    obs::Counter retrans_served;
  };
  /// Closes any open membership phase span, then the view-change span.
  void obs_close_membership_spans();

  // --- plumbing (daemon.cpp) ------------------------------------------------
  void handle_message(DaemonId from, const util::SharedBytes& msg);
  void send_heartbeats();
  void broadcast_to(const std::vector<DaemonId>& daemons, MsgType type, const util::Bytes& body);
  void schedule_client_delivery(std::function<void()> fn);
  /// Single home for handing a message to local clients: one event hands
  /// it to each of `clients` in order, sharing the payload block (no copies).
  void post_to_client(std::vector<std::uint32_t> clients, const Message& msg);
  std::vector<MemberId> members_of(const GroupName& group) const;
  GroupViewId current_group_view_id(const GroupName& group) const;

  runtime::Clock& clock_;
  runtime::Transport& net_;
  runtime::Compute& compute_;
  DaemonId self_;
  std::vector<DaemonId> configured_;
  TimingConfig timing_;
  util::Rng rng_;

  DState state_ = DState::kDown;
  std::uint64_t boot_id_ = 0;
  DaemonKeyStore* key_store_ = nullptr;
  std::unique_ptr<LinkCrypto> link_crypto_;
  std::unique_ptr<DaemonKeyAgent> key_agent_;
  std::unique_ptr<LinkManager> links_;
  std::unique_ptr<FailureDetector> fd_;
  runtime::TimerId hb_timer_ = 0;

  // Installed view.
  ViewId view_id_;
  std::vector<DaemonId> view_members_;
  /// Per-view contexts: current + kept predecessors (for retransmission).
  std::map<ViewId, ViewContext> contexts_;

  // Gather state.
  std::uint64_t max_round_seen_ = 0;
  std::uint64_t gather_round_ = 0;
  std::map<DaemonId, std::vector<DaemonId>> gather_announced_;  // round participants
  std::set<DaemonId> my_candidates_;
  runtime::TimerId gather_stable_timer_ = 0;
  runtime::TimerId gather_timeout_timer_ = 0;
  bool stable_timer_armed_ = false;
  bool timeout_timer_armed_ = false;

  // Exchange / install state.
  ViewId proposed_view_;
  DaemonId proposed_coordinator_ = kInvalidDaemon;
  std::vector<DaemonId> proposed_members_;
  std::map<DaemonId, StateExchangeMsg> collected_states_;  // coordinator only
  std::optional<InstallMsg> pending_install_;
  std::map<std::pair<DaemonId, std::uint64_t>, bool> recovery_requested_;
  runtime::TimerId recovery_timer_ = 0;
  bool recovery_timer_armed_ = false;

  // Buffered traffic for views not yet installed (refcounted re-encodings).
  std::map<ViewId, std::vector<util::SharedBytes>> future_view_buffer_;

  // Lightweight groups (identical at all daemons of a view).
  GroupTable groups_;
  std::map<GroupName, GroupViewId> group_views_;

  // Local clients.
  std::uint32_t next_client_ = 1;
  std::map<std::uint32_t, LocalClient> clients_;

  // Client sends queued while not operational.
  std::deque<PendingSend> pending_sends_;

  Counters counters_;
  /// gcs.delivery.latency_us{daemon=<id>}, resolved once at construction.
  obs::Histogram& delivery_latency_us_;
  // Membership protocol spans (lane tid=0 of this daemon's trace track).
  // view_change_span_ wraps the whole change; exactly one phase span
  // (gather/exchange/recover) nests inside it at a time.
  obs::SpanHandle view_change_span_;
  obs::SpanHandle phase_span_;
};

}  // namespace ss::gcs
