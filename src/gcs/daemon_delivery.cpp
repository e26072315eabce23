// Ordered data path: per-view stores, FIFO/causal/agreed/safe delivery,
// group-change application and delivery to local clients.
#include <algorithm>

#include "gcs/daemon.h"
#include "util/log.h"

namespace ss::gcs {

void Daemon::flush_pending_sends() {
  while (!pending_sends_.empty() && state_ == DState::kOperational) {
    PendingSend ps = std::move(pending_sends_.front());
    pending_sends_.pop_front();
    multicast_data(std::move(ps));
  }
}

void Daemon::multicast_data(PendingSend ps) {
  auto it = contexts_.find(view_id_);
  if (it == contexts_.end()) return;
  ViewContext& ctx = it->second;

  DataMsg m;
  m.view = view_id_;
  m.sender = self_;
  m.seq = ctx.my_next_seq++;
  m.service = ps.service;
  m.control = ps.control;
  m.group = std::move(ps.group);
  m.origin = ps.origin;
  m.msg_type = ps.msg_type;
  m.payload = std::move(ps.payload);
  if (obs::TraceSink* s = obs::sink()) {
    s->note_send(obs::trace_msg_key(m.view.round, m.view.coordinator, m.sender, m.seq));
  }
  if (m.service == ServiceType::kCausal) {
    // BSS timestamp: what I have delivered, plus this send of mine.
    for (DaemonId d : ctx.members) {
      const std::uint64_t count =
          d == self_ ? ctx.my_causal_sent + 1
                     : (ctx.causal_delivered.contains(d) ? ctx.causal_delivered.at(d) : 0);
      m.vclock.emplace_back(d, count);
    }
    ++ctx.my_causal_sent;
  }

  // Encode once (the single payload gather of the data path) and share the
  // block across every peer. A purely local multicast skips encoding
  // entirely: self-delivery hands the DataMsg over in-memory, so delivering
  // to N local clients costs zero payload copies.
  const bool has_remote = std::any_of(ctx.members.begin(), ctx.members.end(),
                                      [this](DaemonId d) { return d != self_; });
  if (has_remote) {
    const util::SharedBytes framed = m.encode_framed();
    for (DaemonId d : ctx.members) {
      if (d != self_) links_->send(d, framed);
    }
  }
  // Self receipt through the same path (self-delivery), asynchronously so a
  // client API call never re-enters delivery code that is on the stack.
  const std::uint64_t boot = boot_id_;
  clock_.after(1, [this, boot, m = std::move(m)] {
    if (state_ != DState::kDown && boot_id_ == boot) on_data(m);
  });
}

void Daemon::on_data(const DataMsg& msg) {
  if (state_ == DState::kDown) return;
  auto it = contexts_.find(msg.view);
  if (it == contexts_.end()) {
    if (msg.view.round > view_id_.round) {
      // Sent in a view we have not installed yet; replay after install.
      future_view_buffer_[msg.view].push_back(msg.encode_framed());
    }
    return;  // stale view: drop
  }
  ViewContext& ctx = it->second;
  store_message(ctx, msg);
  if (!ctx.frozen && msg.view == view_id_) {
    try_deliver(ctx);
  }
}

void Daemon::store_message(ViewContext& ctx, const DataMsg& msg) {
  const auto key = std::make_pair(msg.sender, msg.seq);
  if (!ctx.store.emplace(key, StoredMsg{msg, false}).second) return;  // duplicate

  // Advance the contiguous receipt high-water mark.
  std::uint64_t& high = ctx.recv_high[msg.sender];
  while (ctx.store.contains({msg.sender, high + 1})) ++high;

  // Sequencer stamps agreed/safe messages in receipt order.
  if (!ctx.frozen && ctx.sequencer == self_ &&
      (msg.service == ServiceType::kAgreed || msg.service == ServiceType::kSafe)) {
    sequencer_stamp(ctx);
  }
  update_contig_gseq(ctx);
}

void Daemon::sequencer_stamp(ViewContext& ctx) {
  // Stamp every stored, unstamped agreed/safe message whose receipt is
  // contiguous (links are FIFO so this is simply arrival order).
  for (auto& [key, sm] : ctx.store) {
    if (sm.msg.service != ServiceType::kAgreed && sm.msg.service != ServiceType::kSafe) continue;
    if (ctx.stamp_of.contains(key)) continue;
    OrderStampMsg stamp;
    stamp.view = ctx.id;
    stamp.gseq = ctx.next_gseq++;
    stamp.sender = key.first;
    stamp.seq = key.second;
    ctx.stamps[stamp.gseq] = key;
    ctx.stamp_of[key] = stamp.gseq;
    const util::SharedBytes framed{frame(MsgType::kOrderStamp, stamp.encode())};
    for (DaemonId d : ctx.members) {
      if (d != self_) links_->send(d, framed);
    }
  }
}

void Daemon::on_order_stamp(const OrderStampMsg& msg) {
  if (state_ == DState::kDown) return;
  auto it = contexts_.find(msg.view);
  if (it == contexts_.end()) {
    if (msg.view.round > view_id_.round) {
      future_view_buffer_[msg.view].push_back(frame(MsgType::kOrderStamp, msg.encode()));
    }
    return;
  }
  ViewContext& ctx = it->second;
  if (ctx.frozen) return;  // recovery uses the plan's stamp union instead
  ctx.stamps[msg.gseq] = {msg.sender, msg.seq};
  ctx.stamp_of[{msg.sender, msg.seq}] = msg.gseq;
  update_contig_gseq(ctx);
  if (msg.view == view_id_) try_deliver(ctx);
}

void Daemon::update_contig_gseq(ViewContext& ctx) {
  while (true) {
    auto it = ctx.stamps.find(ctx.contig_gseq + 1);
    if (it == ctx.stamps.end() || !ctx.store.contains(it->second)) break;
    ++ctx.contig_gseq;
  }
}

bool Daemon::deliverable(const ViewContext& ctx, const StoredMsg& sm) const {
  const DataMsg& m = sm.msg;
  // Per-sender FIFO prerequisite for every service.
  const auto dh = ctx.delivered_high.find(m.sender);
  const std::uint64_t delivered = dh == ctx.delivered_high.end() ? 0 : dh->second;
  if (m.seq != delivered + 1) return false;

  switch (m.service) {
    case ServiceType::kUnreliable:
    case ServiceType::kReliable:
    case ServiceType::kFifo:
      return true;
    case ServiceType::kCausal: {
      for (const auto& [d, count] : m.vclock) {
        const auto cit = ctx.causal_delivered.find(d);
        const std::uint64_t have = cit == ctx.causal_delivered.end() ? 0 : cit->second;
        if (d == m.sender) {
          if (count != have + 1) return false;
        } else if (count > have) {
          return false;
        }
      }
      return true;
    }
    case ServiceType::kAgreed:
    case ServiceType::kSafe: {
      const auto sit = ctx.stamp_of.find({m.sender, m.seq});
      if (sit == ctx.stamp_of.end()) return false;
      if (sit->second != ctx.delivered_gseq + 1) return false;
      if (m.service == ServiceType::kSafe) {
        // Stability: every view member must hold the message.
        for (DaemonId d : ctx.members) {
          const std::uint64_t have =
              d == self_ ? ctx.contig_gseq
                         : (ctx.peer_contig_gseq.contains(d) ? ctx.peer_contig_gseq.at(d) : 0);
          if (have < sit->second) return false;
        }
      }
      return true;
    }
  }
  return false;
}

void Daemon::try_deliver(ViewContext& ctx) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& [key, sm] : ctx.store) {
      if (sm.delivered) continue;
      if (!deliverable(ctx, sm)) continue;
      deliver_now(ctx, sm);
      progress = true;
      break;  // restart the scan: delivery may unblock earlier keys
    }
  }
}

void Daemon::deliver_now(ViewContext& ctx, StoredMsg& sm) {
  sm.delivered = true;
  const DataMsg& m = sm.msg;
  std::uint64_t& dh = ctx.delivered_high[m.sender];
  if (m.seq > dh) dh = m.seq;
  if (m.service == ServiceType::kCausal) {
    ++ctx.causal_delivered[m.sender];
  }
  const auto sit = ctx.stamp_of.find({m.sender, m.seq});
  if (sit != ctx.stamp_of.end() && sit->second > ctx.delivered_gseq) {
    ctx.delivered_gseq = sit->second;
  }
  counters_.messages_delivered.inc();
  if (obs::TraceSink* s = obs::sink()) {
    const std::uint64_t key =
        obs::trace_msg_key(m.view.round, m.view.coordinator, m.sender, m.seq);
    if (const auto latency = s->latency_since_send(key)) {
      delivery_latency_us_.observe(static_cast<double>(*latency));
      s->instant("gcs", "msg.delivered", self_, 0,
                 {{"latency_us", *latency}, {"sender", m.sender}, {"seq", m.seq}});
    }
  }
  if (m.control) {
    apply_group_change(m);
  } else {
    deliver_to_clients(m);
  }
}

void Daemon::apply_group_change(const DataMsg& m) {
  GroupChangeMsg change;
  try {
    util::Reader r(m.payload);
    change = GroupChangeMsg::decode(r);
  } catch (const util::SerialError&) {
    return;
  }
  counters_.control_changes.inc();
  auto ctx_it = contexts_.find(m.view);
  ViewContext& ctx = ctx_it->second;

  // Join order stamp: the agreed gseq when available, else a deterministic
  // synthetic successor (recovery tail; identical at all members).
  std::uint64_t change_gseq;
  const auto sit = ctx.stamp_of.find({m.sender, m.seq});
  if (sit != ctx.stamp_of.end()) {
    change_gseq = sit->second;
  } else {
    change_gseq = ctx.last_change_gseq + 1;
  }
  ctx.last_change_gseq = std::max(ctx.last_change_gseq, change_gseq);

  auto& entries = groups_.groups[change.group];

  if (change.kind == GroupChangeKind::kJoin) {
    const bool present = std::any_of(entries.begin(), entries.end(), [&](const auto& e) {
      return e.member == change.member;
    });
    if (present) return;
    GroupMemberEntry e;
    e.member = change.member;
    e.join_stamp = GroupViewId{m.view, change_gseq};
    entries.push_back(e);
    std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
      return std::tie(a.join_stamp, a.member) < std::tie(b.join_stamp, b.member);
    });
    group_views_[change.group] = GroupViewId{view_id_, change_gseq};
    if (change.member.daemon == self_) {
      auto cit = clients_.find(change.member.client);
      if (cit != clients_.end()) cit->second.joined.insert(change.group);
    }
    deliver_group_view(change.group, MembershipReason::kJoin, {change.member}, {}, std::nullopt);
    return;
  }

  // Leave / disconnect.
  const auto eit = std::find_if(entries.begin(), entries.end(),
                                [&](const auto& e) { return e.member == change.member; });
  if (eit == entries.end()) {
    if (entries.empty()) groups_.groups.erase(change.group);
    return;
  }
  entries.erase(eit);
  group_views_[change.group] = GroupViewId{view_id_, change_gseq};
  const MembershipReason reason = change.kind == GroupChangeKind::kLeave
                                      ? MembershipReason::kLeave
                                      : MembershipReason::kDisconnect;
  if (change.member.daemon == self_) {
    auto cit = clients_.find(change.member.client);
    if (cit != clients_.end()) cit->second.joined.erase(change.group);
  }
  const std::optional<MemberId> self_leaver =
      change.kind == GroupChangeKind::kLeave ? std::optional<MemberId>(change.member)
                                             : std::nullopt;
  deliver_group_view(change.group, reason, {}, {change.member}, self_leaver);
  if (entries.empty()) {
    groups_.groups.erase(change.group);
    group_views_.erase(change.group);
  }
}

void Daemon::deliver_group_view(const GroupName& group, MembershipReason reason,
                                const std::vector<MemberId>& joined,
                                const std::vector<MemberId>& left,
                                const std::optional<MemberId>& self_leaver) {
  GroupView view;
  view.group = group;
  view.view_id = current_group_view_id(group);
  view.members = members_of(group);
  view.reason = reason;
  view.joined = joined;
  view.left = left;
  for (const auto& m : view.members) {
    if (std::find(joined.begin(), joined.end(), m) == joined.end()) {
      view.transitional.push_back(m);
    }
  }

  for (const auto& m : view.members) {
    if (m.daemon != self_) continue;
    const std::uint32_t client = m.client;
    schedule_client_delivery([this, client, view] {
      auto cit = clients_.find(client);
      if (cit != clients_.end() && cit->second.connected) cit->second.cb->deliver_view(view);
    });
  }

  // The voluntary leaver receives a final self-leave view (Spread's
  // CAUSED_BY_LEAVE self message).
  if (self_leaver && self_leaver->daemon == self_) {
    GroupView bye;
    bye.group = group;
    bye.view_id = view.view_id;
    bye.reason = MembershipReason::kSelfLeave;
    bye.left = {*self_leaver};
    const std::uint32_t client = self_leaver->client;
    schedule_client_delivery([this, client, bye] {
      auto cit = clients_.find(client);
      if (cit != clients_.end() && cit->second.connected) cit->second.cb->deliver_view(bye);
    });
  }
}

void Daemon::deliver_to_clients(const DataMsg& m) {
  const std::vector<MemberId> members = members_of(m.group);
  Message out;
  out.group = m.group;
  out.sender = m.origin;
  out.service = m.service;
  out.msg_type = m.msg_type;
  out.payload = m.payload;  // refcount bump, not a copy
  out.view_id = current_group_view_id(m.group);
  for (const auto& member : members) {
    if (member.daemon != self_) continue;
    post_to_client(member.client, out);
  }
}

}  // namespace ss::gcs
