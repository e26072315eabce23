// Daemon core: lifecycle, packet plumbing, heartbeats and the client API.
// The membership engine lives in daemon_membership.cpp and the ordered data
// path in daemon_delivery.cpp.
#include "gcs/daemon.h"

#include <algorithm>

#include "util/log.h"

namespace ss::gcs {

Daemon::Daemon(const runtime::Env& env, std::vector<DaemonId> configured, TimingConfig timing,
               std::uint64_t seed, DaemonKeyStore* key_store)
    : clock_(*env.clock),
      net_(*env.net),
      compute_(env.compute),
      self_(env.self),
      configured_(std::move(configured)),
      timing_(timing),
      rng_(seed ^ (static_cast<std::uint64_t>(self_) << 32)),
      key_store_(key_store),
      counters_({{"daemon", std::to_string(self_)}}),
      delivery_latency_us_(obs::MetricsRegistry::current().histogram(
          "gcs.delivery.latency_us", obs::latency_buckets_us(),
          {{"daemon", std::to_string(self_)}})) {
  std::sort(configured_.begin(), configured_.end());
}

Daemon::~Daemon() {
  if (state_ != DState::kDown) stop();
}

void Daemon::start() {
  if (state_ != DState::kDown) return;
  boot_id_ = rng_.next() | 1;  // never 0 (0 means "unknown" in the link layer)
  links_ = std::make_unique<LinkManager>(
      env(), boot_id_, timing_,
      [this](DaemonId from, const util::SharedBytes& msg) { handle_message(from, msg); });
  if (key_store_ != nullptr) {
    crypto::HmacDrbg provision_rnd(rng_.next(), "daemon-lt-key");
    key_store_->provision(self_, provision_rnd);
    link_crypto_ = std::make_unique<LinkCrypto>(*key_store_, self_, rng_.next());
    links_->set_crypto(link_crypto_.get());
    key_agent_ = std::make_unique<DaemonKeyAgent>(
        *key_store_, self_, rng_.next(),
        [this](DaemonId to, const util::Bytes& body) {
          links_->send(to, frame(MsgType::kDaemonKeyDist, body));
        },
        compute_);
  }
  fd_ = std::make_unique<FailureDetector>(clock_, timing_, self_, configured_,
                                          [this] { on_fd_change(); });

  // Boot into a singleton view; peers are discovered via heartbeats.
  const ViewId initial{++max_round_seen_, self_};
  state_ = DState::kOperational;  // install_view requires non-down state
  install_view(initial, {self_}, GroupTable{});
  fd_->start();
  send_heartbeats();
  SS_LOG_INFO("daemon", "d", self_, " started, view ", view_id_.to_string());
}

void Daemon::stop() {
  if (state_ == DState::kDown) return;
  state_ = DState::kDown;
  obs_close_membership_spans();
  if (hb_timer_ != 0) clock_.cancel(hb_timer_);
  if (stable_timer_armed_) clock_.cancel(gather_stable_timer_);
  if (timeout_timer_armed_) clock_.cancel(gather_timeout_timer_);
  if (recovery_timer_armed_) clock_.cancel(recovery_timer_);
  stable_timer_armed_ = timeout_timer_armed_ = recovery_timer_armed_ = false;
  if (fd_) fd_->stop();
  if (links_) links_->shutdown();
  fd_.reset();
  links_.reset();
  link_crypto_.reset();
  key_agent_.reset();
  contexts_.clear();
  future_view_buffer_.clear();
  groups_ = GroupTable{};
  group_views_.clear();
  clients_.clear();
  pending_sends_.clear();
  collected_states_.clear();
  pending_install_.reset();
  gather_announced_.clear();
}

void Daemon::crash() {
  if (obs::TraceSink* s = obs::sink()) s->instant("gcs", "daemon.crash", self_, 0);
  net_.crash(self_);
  stop();
}

std::string Daemon::debug_state() const {
  std::string out = "state=" + std::to_string(static_cast<int>(state_)) +
                    " view=" + view_id_.to_string() +
                    " delivered=" + std::to_string(counters_.messages_delivered.value()) +
                    " gathers=" + std::to_string(counters_.gathers_started.value()) +
                    " installs=" + std::to_string(counters_.views_installed.value());
  const auto it = contexts_.find(view_id_);
  if (it != contexts_.end()) {
    const ViewContext& ctx = it->second;
    std::size_t undelivered = 0;
    for (const auto& [key, sm] : ctx.store) {
      if (!sm.delivered) ++undelivered;
    }
    out += " ctx{frozen=" + std::to_string(ctx.frozen) +
           " store=" + std::to_string(ctx.store.size()) +
           " undeliv=" + std::to_string(undelivered) +
           " stamps=" + std::to_string(ctx.stamps.size()) +
           " contig_gseq=" + std::to_string(ctx.contig_gseq) +
           " delivered_gseq=" + std::to_string(ctx.delivered_gseq) + "}";
  } else {
    out += " ctx{none}";
  }
  if (links_) out += " links{" + links_->debug_state() + "}";
  return out;
}

Daemon::Counters::Counters(const obs::Labels& labels)
    : views_installed("gcs.daemon.views_installed", labels),
      gathers_started("gcs.daemon.gathers_started", labels),
      messages_delivered("gcs.daemon.messages_delivered", labels),
      control_changes("gcs.daemon.control_changes", labels),
      recovered_messages("gcs.daemon.recovered_messages", labels),
      retrans_served("gcs.daemon.retrans_served", labels) {}

DaemonStats Daemon::stats() const {
  DaemonStats s;
  s.views_installed = counters_.views_installed.value();
  s.gathers_started = counters_.gathers_started.value();
  s.messages_delivered = counters_.messages_delivered.value();
  s.control_changes = counters_.control_changes.value();
  s.recovered_messages = counters_.recovered_messages.value();
  s.retrans_served = counters_.retrans_served.value();
  return s;
}

void Daemon::obs_close_membership_spans() {
  phase_span_.end();
  view_change_span_.end();
}

void Daemon::on_packet(runtime::NodeId from, const util::Frame& payload) {
  if (state_ == DState::kDown) return;
  if (fd_) fd_->heard_from(from);
  try {
    links_->on_packet(from, payload);
  } catch (const util::SerialError&) {
    // Corrupt frame: treat as loss.
  }
}

void Daemon::handle_message(DaemonId from, const util::SharedBytes& raw) {
  if (state_ == DState::kDown) return;
  try {
    auto [type, body] = unframe(raw);
    util::Reader r(body);
    switch (type) {
      case MsgType::kHeartbeat: {
        const HeartbeatMsg m = HeartbeatMsg::decode(r);
        max_round_seen_ = std::max(max_round_seen_, m.view.round);
        // Stability input for SAFE delivery.
        auto it = contexts_.find(view_id_);
        if (it != contexts_.end() &&
            std::find(view_members_.begin(), view_members_.end(), from) != view_members_.end()) {
          it->second.peer_contig_gseq[from] = m.delivered_gseq;
          if (!it->second.frozen) try_deliver(it->second);
        }
        // Foreign daemon with an alien view: network components merged.
        if (state_ == DState::kOperational &&
            std::find(view_members_.begin(), view_members_.end(), from) == view_members_.end()) {
          trigger_gather();
        }
        break;
      }
      case MsgType::kGatherAnnounce:
        on_gather_announce(from, GatherAnnounceMsg::decode(r));
        break;
      case MsgType::kProposal:
        on_proposal(from, ProposalMsg::decode(r));
        break;
      case MsgType::kStateExchange:
        on_state_exchange(from, StateExchangeMsg::decode(r));
        break;
      case MsgType::kInstall:
        on_install(from, InstallMsg::decode(r));
        break;
      case MsgType::kRetransReq:
        on_retrans_req(from, RetransReqMsg::decode(r));
        break;
      case MsgType::kRetransData:
        on_retrans_data(from, RetransDataMsg::decode(r));
        break;
      case MsgType::kData:
        on_data(DataMsg::decode(r));
        break;
      case MsgType::kOrderStamp:
        on_order_stamp(OrderStampMsg::decode(r));
        break;
      case MsgType::kDaemonKeyDist:
        if (key_agent_) key_agent_->on_key_dist(from, r.rest());
        break;
      case MsgType::kUnicast: {
        UnicastMsg m = UnicastMsg::decode(r);
        auto it = clients_.find(m.to.client);
        if (m.to.daemon == self_ && it != clients_.end() && it->second.connected) {
          Message out;
          out.group = std::move(m.group);
          out.sender = m.from;
          out.service = ServiceType::kFifo;
          out.msg_type = m.msg_type;
          out.payload = std::move(m.payload);
          post_to_client(m.to.client, out);
        }
        break;
      }
    }
  } catch (const util::SerialError&) {
    SS_LOG_WARN("daemon", "d", self_, " dropped undecodable message from d", from);
  }
}

void Daemon::send_heartbeats() {
  if (state_ == DState::kDown) return;
  HeartbeatMsg hb;
  hb.view = view_id_;
  auto it = contexts_.find(view_id_);
  hb.delivered_gseq = it != contexts_.end() ? it->second.contig_gseq : 0;
  // One shared encoding, chained into every peer's frame without copying.
  const util::SharedBytes framed{frame(MsgType::kHeartbeat, hb.encode())};
  for (DaemonId peer : configured_) {
    if (peer != self_) links_->send_raw(peer, framed);
  }
  hb_timer_ = clock_.after(timing_.heartbeat_interval, [this] { send_heartbeats(); });
}

void Daemon::broadcast_to(const std::vector<DaemonId>& daemons, MsgType type,
                          const util::Bytes& body) {
  // One shared encoding for the whole fan-out.
  const util::SharedBytes framed{frame(type, body)};
  for (DaemonId d : daemons) links_->send(d, framed);
}

void Daemon::post_to_client(std::uint32_t client, const Message& msg) {
  // The lambda's Message copy shares the payload block — zero payload
  // copies no matter how many local clients a multicast fans out to.
  schedule_client_delivery([this, client, msg] {
    auto it = clients_.find(client);
    if (it != clients_.end() && it->second.connected) it->second.cb->deliver_message(msg);
  });
}

void Daemon::schedule_client_delivery(std::function<void()> fn) {
  const std::uint64_t boot = boot_id_;
  clock_.after(timing_.client_ipc_delay, [this, boot, fn = std::move(fn)] {
    if (state_ != DState::kDown && boot_id_ == boot) fn();
  });
}

// --- client interface -------------------------------------------------------

MemberId Daemon::attach_client(ClientCallbacks* cb) {
  const MemberId id{self_, next_client_++};
  LocalClient lc;
  lc.cb = cb;
  lc.connected = true;
  clients_.emplace(id.client, std::move(lc));
  return id;
}

void Daemon::detach_client(const MemberId& id, bool graceful) {
  auto it = clients_.find(id.client);
  if (it == clients_.end() || id.daemon != self_) return;
  // Announce departure from every joined group; ungraceful detach shows up
  // as a Disconnect at the survivors (paper Table 1 maps both to Leave).
  // Copy: delivering the change erases from the live joined set.
  const std::set<GroupName> joined = it->second.joined;
  for (const GroupName& g : joined) {
    GroupChangeMsg change;
    change.kind = graceful ? GroupChangeKind::kLeave : GroupChangeKind::kDisconnect;
    change.group = g;
    change.member = id;
    PendingSend ps{ServiceType::kAgreed, true, g, id, 0, change.encode()};
    if (state_ == DState::kOperational) {
      multicast_data(std::move(ps));
    } else {
      pending_sends_.push_back(std::move(ps));
    }
  }
  it->second.connected = false;
  clients_.erase(it);
}

void Daemon::client_join(const MemberId& id, const GroupName& group) {
  auto it = clients_.find(id.client);
  if (it == clients_.end() || !it->second.connected) return;
  GroupChangeMsg change;
  change.kind = GroupChangeKind::kJoin;
  change.group = group;
  change.member = id;
  PendingSend ps{ServiceType::kAgreed, true, group, id, 0, change.encode()};
  if (state_ == DState::kOperational) {
    multicast_data(std::move(ps));
  } else {
    pending_sends_.push_back(std::move(ps));
  }
}

void Daemon::client_leave(const MemberId& id, const GroupName& group) {
  auto it = clients_.find(id.client);
  if (it == clients_.end() || !it->second.connected) return;
  GroupChangeMsg change;
  change.kind = GroupChangeKind::kLeave;
  change.group = group;
  change.member = id;
  PendingSend ps{ServiceType::kAgreed, true, group, id, 0, change.encode()};
  if (state_ == DState::kOperational) {
    multicast_data(std::move(ps));
  } else {
    pending_sends_.push_back(std::move(ps));
  }
}

void Daemon::client_multicast(const MemberId& id, ServiceType service, const GroupName& group,
                              std::int16_t msg_type, util::SharedBytes payload) {
  auto it = clients_.find(id.client);
  if (it == clients_.end() || !it->second.connected) return;
  PendingSend ps{service, false, group, id, msg_type, std::move(payload)};
  if (state_ == DState::kOperational) {
    multicast_data(std::move(ps));
  } else {
    pending_sends_.push_back(std::move(ps));
  }
}

void Daemon::client_unicast(const MemberId& from, const MemberId& to, const GroupName& group,
                            std::int16_t msg_type, util::SharedBytes payload) {
  auto it = clients_.find(from.client);
  if (it == clients_.end() || !it->second.connected) return;
  UnicastMsg m;
  m.from = from;
  m.to = to;
  m.group = group;
  m.msg_type = msg_type;
  m.payload = std::move(payload);
  links_->send(to.daemon, m.encode_framed());
}

std::vector<MemberId> Daemon::members_of(const GroupName& group) const {
  std::vector<MemberId> out;
  auto it = groups_.groups.find(group);
  if (it == groups_.groups.end()) return out;
  out.reserve(it->second.size());
  for (const auto& e : it->second) out.push_back(e.member);
  return out;
}

std::vector<MemberId> Daemon::group_members(const GroupName& group) const {
  return members_of(group);
}

GroupViewId Daemon::current_group_view_id(const GroupName& group) const {
  auto it = group_views_.find(group);
  return it != group_views_.end() ? it->second : GroupViewId{view_id_, 0};
}

}  // namespace ss::gcs
