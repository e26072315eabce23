// Daemon membership engine: coordinator-based EVS configurations.
//
// Phases:  OPERATIONAL --(fd change / foreign daemon)--> GATHER
//          GATHER: announce candidate sets until stable; lowest-id
//                  candidate proposes a view.
//          EXCHANGE: members freeze their old view and report its state
//                  (receipt vectors, order stamps, group tables).
//          RECOVER: coordinator's install carries a per-old-view recovery
//                  plan; members fetch missing messages, deliver an
//                  identical old-view suffix, then install the new view.
// Any failure-detector change or newer gather round restarts the process —
// that is precisely the "cascading membership events" machinery of paper
// Section 5.4, here at the daemon level.
#include <algorithm>

#include "gcs/daemon.h"
#include "util/log.h"

namespace ss::gcs {

void Daemon::on_fd_change() {
  if (state_ == DState::kDown) return;
  const std::vector<DaemonId> reachable = fd_->reachable_set();
  if (state_ == DState::kOperational && reachable == view_members_) return;
  trigger_gather();
}

void Daemon::trigger_gather() {
  if (state_ == DState::kDown) return;
  if (state_ == DState::kGather) {
    // Already gathering: refresh the candidate set in the current round.
    announce_gather();
    return;
  }
  counters_.gathers_started.inc();
  // A regather from exchange/recover is a cascade: the phase span restarts
  // but the enclosing view-change span keeps running from the first gather.
  if (!view_change_span_.open()) {
    view_change_span_.begin("evs", "view_change", self_, 0,
                            {{"from_view", view_id_.to_string()}});
  }
  phase_span_.begin("evs", "gather", self_, 0);
  state_ = DState::kGather;
  gather_round_ = std::max(max_round_seen_, view_id_.round) + 1;
  max_round_seen_ = gather_round_;
  gather_announced_.clear();
  collected_states_.clear();
  pending_install_.reset();
  recovery_requested_.clear();
  if (recovery_timer_armed_) {
    clock_.cancel(recovery_timer_);
    recovery_timer_armed_ = false;
  }
  if (timeout_timer_armed_) clock_.cancel(gather_timeout_timer_);
  timeout_timer_armed_ = true;
  gather_timeout_timer_ = clock_.after(timing_.gather_timeout, [this] {
    timeout_timer_armed_ = false;
    if (state_ == DState::kGather || state_ == DState::kExchange) {
      // No proposal/install materialized: restart with a fresh round.
      state_ = DState::kOperational;  // leave gather so trigger restarts it
      trigger_gather();
    }
  });
  SS_LOG_DEBUG("memb", "d", self_, " gather round ", gather_round_);
  announce_gather();
}

void Daemon::announce_gather() {
  const std::vector<DaemonId> reachable = fd_->reachable_set();
  my_candidates_.clear();
  for (DaemonId d : reachable) my_candidates_.insert(d);
  my_candidates_.insert(self_);

  GatherAnnounceMsg m;
  m.round = gather_round_;
  m.candidates.assign(my_candidates_.begin(), my_candidates_.end());
  gather_announced_[self_] = m.candidates;
  // One shared encoding for the whole candidate fan-out.
  const util::SharedBytes framed{frame(MsgType::kGatherAnnounce, m.encode())};
  for (DaemonId d : my_candidates_) {
    if (d != self_) links_->send(d, framed);
  }
  // (Re)arm the stabilization timer: propose once the set is quiet.
  if (stable_timer_armed_) clock_.cancel(gather_stable_timer_);
  stable_timer_armed_ = true;
  gather_stable_timer_ = clock_.after(timing_.gather_stable, [this] {
    stable_timer_armed_ = false;
    maybe_propose();
  });
}

void Daemon::on_gather_announce(DaemonId from, const GatherAnnounceMsg& m) {
  max_round_seen_ = std::max(max_round_seen_, m.round);
  if (state_ == DState::kDown) return;

  if (state_ != DState::kGather) {
    // Pulled into a gather by a peer (merge, or we were mid-exchange and a
    // peer restarted the process).
    trigger_gather();
  } else if (m.round > gather_round_) {
    // Join the newer round.
    gather_round_ = m.round;
    gather_announced_.clear();
    announce_gather();
  }
  if (state_ == DState::kGather && m.round == gather_round_) {
    gather_announced_[from] = m.candidates;
    // The announcer proved reachability; fold it in if FD lagged.
    if (!my_candidates_.contains(from)) {
      announce_gather();
    } else if (stable_timer_armed_) {
      clock_.cancel(gather_stable_timer_);
      gather_stable_timer_ = clock_.after(timing_.gather_stable, [this] {
        stable_timer_armed_ = false;
        maybe_propose();
      });
    }
  }
}

void Daemon::maybe_propose() {
  if (state_ != DState::kGather) return;
  const DaemonId coordinator = *my_candidates_.begin();
  if (coordinator != self_) return;  // not our job; wait for a proposal

  // Every candidate must have announced this round; otherwise wait more
  // (the overall gather timeout bounds this).
  for (DaemonId c : my_candidates_) {
    if (!gather_announced_.contains(c)) {
      stable_timer_armed_ = true;
      gather_stable_timer_ = clock_.after(timing_.gather_stable, [this] {
        stable_timer_armed_ = false;
        maybe_propose();
      });
      return;
    }
  }

  ProposalMsg m;
  m.view = ViewId{gather_round_, self_};
  m.members.assign(my_candidates_.begin(), my_candidates_.end());
  SS_LOG_DEBUG("memb", "d", self_, " proposing ", m.view.to_string(), " with ",
               m.members.size(), " members");
  broadcast_to(m.members, MsgType::kProposal, m.encode());
}

void Daemon::on_proposal(DaemonId from, const ProposalMsg& m) {
  max_round_seen_ = std::max(max_round_seen_, m.view.round);
  if (state_ != DState::kGather || m.view.round != gather_round_) return;
  if (std::find(m.members.begin(), m.members.end(), self_) == m.members.end()) return;

  state_ = DState::kExchange;
  phase_span_.begin("evs", "exchange", self_, 0,
                    {{"proposed", m.view.to_string()}, {"members", m.members.size()}});
  proposed_view_ = m.view;
  proposed_coordinator_ = from;
  proposed_members_ = m.members;
  collected_states_.clear();
  send_state_exchange(m.view, from);
}

void Daemon::send_state_exchange(const ViewId& proposed, DaemonId coordinator) {
  auto it = contexts_.find(view_id_);
  StateExchangeMsg m;
  m.proposed = proposed;
  m.from = self_;
  m.old_view = view_id_;
  m.old_members = view_members_;
  if (it != contexts_.end()) {
    ViewContext& ctx = it->second;
    ctx.frozen = true;  // no deliveries beyond this point in the old view
    for (const auto& [d, s] : ctx.recv_high) m.fifo_received.emplace_back(d, s);
    m.delivered_gseq = ctx.delivered_gseq;
    for (const auto& [gseq, key] : ctx.stamps) {
      OrderStampMsg s;
      s.view = view_id_;
      s.gseq = gseq;
      s.sender = key.first;
      s.seq = key.second;
      m.stamps.push_back(s);
    }
  }
  m.groups = groups_;
  links_->send(coordinator, frame(MsgType::kStateExchange, m.encode()));
}

void Daemon::on_state_exchange(DaemonId from, const StateExchangeMsg& m) {
  if (state_ != DState::kExchange) return;
  if (m.proposed != proposed_view_ || proposed_view_.coordinator != self_) return;
  collected_states_[from] = m;
  maybe_install();
}

void Daemon::maybe_install() {
  for (DaemonId d : proposed_members_) {
    if (!collected_states_.contains(d)) return;
  }

  InstallMsg inst;
  inst.view = proposed_view_;
  inst.members = proposed_members_;

  // Group recoveries per distinct old view.
  std::map<ViewId, OldViewPlan> plans;
  for (const auto& [from, st] : collected_states_) {
    OldViewPlan& plan = plans[st.old_view];
    if (plan.participants.empty()) {
      plan.old_view = st.old_view;
      plan.old_members = st.old_members;
    }
    plan.participants.push_back(from);
    plan.holder_vecs.emplace_back(from, st.fifo_received);
    // Merge fifo cut: max per sender.
    for (const auto& [sender, seq] : st.fifo_received) {
      auto it = std::find_if(plan.fifo_cut.begin(), plan.fifo_cut.end(),
                             [&](const auto& p) { return p.first == sender; });
      if (it == plan.fifo_cut.end()) {
        plan.fifo_cut.emplace_back(sender, seq);
      } else if (seq > it->second) {
        it->second = seq;
      }
    }
    // Merge stamps (deduplicate by gseq; a view has a single sequencer so
    // duplicates always agree).
    for (const auto& s : st.stamps) {
      auto it = std::find_if(plan.stamps.begin(), plan.stamps.end(),
                             [&](const auto& e) { return e.gseq == s.gseq; });
      if (it == plan.stamps.end()) plan.stamps.push_back(s);
    }
    // Merge group tables. Each daemon is authoritative ONLY for its own
    // clients: accepting remote entries would resurrect "ghost" members
    // that left or crashed inside another partition component (the other
    // side's table is stale for them). Members hosted by absent daemons
    // are dropped by the same rule — their owner reports nothing.
    for (const auto& [name, entries] : st.groups.groups) {
      auto& target = inst.merged_groups.groups[name];
      for (const auto& e : entries) {
        if (e.member.daemon != from) continue;  // not authoritative
        auto eit = std::find_if(target.begin(), target.end(),
                                [&](const auto& t) { return t.member == e.member; });
        if (eit == target.end()) {
          target.push_back(e);
        } else if (e.join_stamp < eit->join_stamp) {
          eit->join_stamp = e.join_stamp;
        }
      }
    }
  }
  for (auto& [view, plan] : plans) {
    std::sort(plan.participants.begin(), plan.participants.end());
    std::sort(plan.stamps.begin(), plan.stamps.end(),
              [](const auto& a, const auto& b) { return a.gseq < b.gseq; });
    inst.plans.push_back(std::move(plan));
  }

  SS_LOG_DEBUG("memb", "d", self_, " installing ", inst.view.to_string());
  broadcast_to(inst.members, MsgType::kInstall, inst.encode());
}

void Daemon::on_install(DaemonId from, const InstallMsg& m) {
  if (state_ != DState::kExchange) return;
  if (m.view != proposed_view_ || from != proposed_view_.coordinator) return;

  state_ = DState::kRecover;
  phase_span_.begin("evs", "recover", self_, 0);
  pending_install_ = m;
  recovery_requested_.clear();
  if (timeout_timer_armed_) {
    clock_.cancel(gather_timeout_timer_);
    timeout_timer_armed_ = false;
  }
  recovery_timer_armed_ = true;
  recovery_timer_ = clock_.after(timing_.recovery_timeout, [this] {
    recovery_timer_armed_ = false;
    if (state_ == DState::kRecover) {
      // Plan not satisfiable (holders vanished): regather.
      state_ = DState::kOperational;
      trigger_gather();
    }
  });
  continue_recovery();
}

const OldViewPlan* find_plan(const InstallMsg& m, const ViewId& old_view) {
  for (const auto& p : m.plans) {
    if (p.old_view == old_view) return &p;
  }
  return nullptr;
}

void Daemon::continue_recovery() {
  if (state_ != DState::kRecover || !pending_install_) return;
  const OldViewPlan* plan = find_plan(*pending_install_, view_id_);
  auto ctx_it = contexts_.find(view_id_);
  if (plan == nullptr || ctx_it == contexts_.end()) {
    finish_recovery_and_install();
    return;
  }
  ViewContext& ctx = ctx_it->second;

  // Find holes below the cut and request them from members that hold them.
  // Below the all-received line nothing is missing: every member of the
  // old view held those messages when this daemon trimmed them.
  std::map<DaemonId, std::vector<std::pair<DaemonId, std::uint64_t>>> requests;
  bool missing_any = false;
  for (const auto& [sender, cut] : plan->fifo_cut) {
    for (std::uint64_t seq = ctx.trimmed_high[sender] + 1; seq <= cut; ++seq) {
      const auto key = std::make_pair(sender, seq);
      if (ctx.store.contains(key)) continue;
      missing_any = true;
      if (recovery_requested_.contains(key)) continue;
      // Pick the lowest-id participant whose receipt vector covers seq.
      DaemonId holder = kInvalidDaemon;
      for (const auto& [p, vec] : plan->holder_vecs) {
        if (p == self_) continue;
        for (const auto& [s, high] : vec) {
          if (s == sender && high >= seq) {
            holder = std::min(holder, p);
            break;
          }
        }
      }
      if (holder != kInvalidDaemon) {
        requests[holder].emplace_back(sender, seq);
        recovery_requested_[key] = true;
      }
    }
  }
  for (auto& [holder, items] : requests) {
    RetransReqMsg req;
    req.old_view = view_id_;
    req.items = std::move(items);
    links_->send(holder, frame(MsgType::kRetransReq, req.encode()));
  }
  if (!missing_any) finish_recovery_and_install();
}

void Daemon::on_retrans_req(DaemonId from, const RetransReqMsg& m) {
  auto it = contexts_.find(m.old_view);
  if (it == contexts_.end()) return;
  RetransDataMsg reply;
  reply.old_view = m.old_view;
  for (const auto& [sender, seq] : m.items) {
    auto sit = it->second.store.find({sender, seq});
    if (sit != it->second.store.end()) reply.msgs.push_back(sit->second.msg);
  }
  if (!reply.msgs.empty()) {
    counters_.retrans_served.inc(reply.msgs.size());
    links_->send(from, frame(MsgType::kRetransData, reply.encode()));
  }
}

void Daemon::on_retrans_data(DaemonId /*from*/, const RetransDataMsg& m) {
  auto it = contexts_.find(m.old_view);
  if (it == contexts_.end()) return;
  for (const DataMsg& msg : m.msgs) {
    it->second.store.emplace(std::make_pair(msg.sender, msg.seq), StoredMsg{msg, false});
  }
  if (state_ == DState::kRecover) continue_recovery();
}

void Daemon::finish_recovery_and_install() {
  InstallMsg inst = std::move(*pending_install_);
  pending_install_.reset();
  if (recovery_timer_armed_) {
    clock_.cancel(recovery_timer_);
    recovery_timer_armed_ = false;
  }

  const OldViewPlan* plan = find_plan(inst, view_id_);
  auto ctx_it = contexts_.find(view_id_);
  if (plan != nullptr && ctx_it != contexts_.end()) {
    ViewContext& ctx = ctx_it->second;
    auto cut_of = [&](DaemonId sender) -> std::uint64_t {
      for (const auto& [s, c] : plan->fifo_cut) {
        if (s == sender) return c;
      }
      return 0;
    };
    // 1. Deliver the agreed-stamped suffix in stamp order.
    for (const auto& s : plan->stamps) {
      auto sit = ctx.store.find({s.sender, s.seq});
      if (sit == ctx.store.end() || sit->second.delivered) continue;
      if (s.seq > cut_of(s.sender)) continue;  // undeliverable stamp
      // Record the stamp so group changes recovered here keep their gseq.
      ctx.stamps[s.gseq] = {s.sender, s.seq};
      ctx.stamp_of[{s.sender, s.seq}] = s.gseq;
      deliver_now(ctx, sit->second);
      counters_.recovered_messages.inc();
    }
    // 2. Deliver the unstamped remainder below the cut in deterministic
    //    (sender, seq) order — identical at every member of the plan.
    for (auto& [key, sm] : ctx.store) {
      if (sm.delivered) continue;
      if (key.second > cut_of(key.first)) continue;
      deliver_now(ctx, sm);
      counters_.recovered_messages.inc();
    }
  }

  // Transitional signal to every locally represented group, after the final
  // old-view messages and before the new configuration (EVS order).
  for (const auto& [name, entries] : groups_.groups) {
    for (const auto& e : entries) {
      if (e.member.daemon != self_) continue;
      const std::uint32_t client = e.member.client;
      const GroupName group = name;
      schedule_client_delivery([this, client, group] {
        auto cit = clients_.find(client);
        if (cit != clients_.end() && cit->second.connected) {
          cit->second.cb->deliver_transitional(group);
        }
      });
    }
  }

  install_view(inst.view, inst.members, inst.merged_groups);
}

void Daemon::install_view(const ViewId& id, const std::vector<DaemonId>& members,
                          const GroupTable& merged) {
  if (state_ == DState::kDown) return;
  state_ = DState::kOperational;
  const ViewId old_view = view_id_;
  view_id_ = id;
  view_members_ = members;
  std::sort(view_members_.begin(), view_members_.end());
  max_round_seen_ = std::max(max_round_seen_, id.round);
  counters_.views_installed.inc();
  // Close the phase + view-change spans (no-ops on the singleton boot view,
  // which installs without a preceding gather) and mark the installation.
  phase_span_.end();
  view_change_span_.end({{"view", id.to_string()}, {"members", members.size()}});
  if (obs::TraceSink* s = obs::sink()) {
    s->instant("evs", "view_installed", self_, 0,
               {{"view", id.to_string()}, {"members", members.size()}});
  }

  ViewContext ctx;
  ctx.id = id;
  ctx.members = view_members_;
  ctx.sequencer = view_members_.front();
  contexts_[id] = std::move(ctx);

  // Keep the two most recent retired contexts for retransmission service.
  while (contexts_.size() > 3) {
    auto victim = contexts_.end();
    for (auto it = contexts_.begin(); it != contexts_.end(); ++it) {
      if (it->first == view_id_ || it->first == old_view) continue;
      if (victim == contexts_.end() || it->first < victim->first) victim = it;
    }
    if (victim == contexts_.end()) break;
    contexts_.erase(victim);
  }

  apply_group_table(merged, view_members_);

  // Replay traffic that arrived for this view before we installed it.
  auto buf = future_view_buffer_.find(id);
  if (buf != future_view_buffer_.end()) {
    std::vector<util::SharedBytes> msgs = std::move(buf->second);
    future_view_buffer_.erase(buf);
    for (const util::SharedBytes& raw : msgs) handle_message(self_, raw);
  }
  // Drop buffers for views that can no longer install.
  for (auto it = future_view_buffer_.begin(); it != future_view_buffer_.end();) {
    if (it->first.round <= id.round) {
      it = future_view_buffer_.erase(it);
    } else {
      ++it;
    }
  }

  SS_LOG_INFO("memb", "d", self_, " installed ", id.to_string(), " members=",
              view_members_.size());
  // Daemon-model keying: refresh the daemon group key for the new view.
  if (key_agent_) key_agent_->on_view_installed(view_id_, view_members_);
  flush_pending_sends();
}

void Daemon::apply_group_table(const GroupTable& merged, const std::vector<DaemonId>& members) {
  auto daemon_in_view = [&](DaemonId d) {
    return std::find(members.begin(), members.end(), d) != members.end();
  };

  // Collect the union of group names we knew and the merged table carries.
  std::set<GroupName> names;
  for (const auto& [name, _] : groups_.groups) names.insert(name);
  for (const auto& [name, _] : merged.groups) names.insert(name);

  GroupTable next;
  for (const GroupName& name : names) {
    // The merged table is authoritative: every daemon reported its own
    // clients during state exchange, so a member absent from it either
    // left/crashed in another component or rides a daemon outside the view.
    std::vector<GroupMemberEntry> entries;
    auto mit = merged.groups.find(name);
    if (mit != merged.groups.end()) {
      for (const auto& e : mit->second) {
        if (daemon_in_view(e.member.daemon)) entries.push_back(e);
      }
    }
    std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
      return std::tie(a.join_stamp, a.member) < std::tie(b.join_stamp, b.member);
    });
    if (!entries.empty()) next.groups[name] = std::move(entries);
  }

  // Deliver membership views for every group whose composition changed.
  for (const GroupName& name : names) {
    std::vector<MemberId> old_members;
    if (auto it = groups_.groups.find(name); it != groups_.groups.end()) {
      for (const auto& e : it->second) old_members.push_back(e.member);
    }
    std::vector<MemberId> new_members;
    if (auto it = next.groups.find(name); it != next.groups.end()) {
      for (const auto& e : it->second) new_members.push_back(e.member);
    }
    if (old_members == new_members) continue;

    std::vector<MemberId> joined, left;
    for (const auto& m : new_members) {
      if (std::find(old_members.begin(), old_members.end(), m) == old_members.end()) {
        joined.push_back(m);
      }
    }
    for (const auto& m : old_members) {
      if (std::find(new_members.begin(), new_members.end(), m) == new_members.end()) {
        left.push_back(m);
      }
    }
    group_views_[name] = GroupViewId{view_id_, 0};
    // Swap in the new table before building views so members_of() is right.
    auto nit = next.groups.find(name);
    if (nit != next.groups.end()) {
      groups_.groups[name] = nit->second;
    } else {
      groups_.groups.erase(name);
      group_views_.erase(name);
    }
    deliver_group_view(name, MembershipReason::kNetwork, joined, left, std::nullopt);
  }
  groups_ = std::move(next);
}

}  // namespace ss::gcs
