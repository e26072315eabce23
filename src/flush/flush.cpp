#include "flush/flush.h"

#include "gcs/trace.h"
#include "util/serial.h"

namespace ss::flush {

FlushMailbox::FlushMailbox(gcs::Daemon& daemon)
    : mbox_(daemon), rounds_completed_("flush.rounds_completed", {{"member", id().to_string()}}) {
  mbox_.on_view([this](const gcs::GroupView& v) { handle_raw_view(v); });
  mbox_.on_message([this](const gcs::Message& m) { handle_raw_message(m); });
  mbox_.on_transitional([this](const gcs::GroupName& g) {
    if (gcs::ClientTrace* t = gcs::ClientTrace::global()) {
      t->on_transitional(gcs::TraceLayer::kFlush, mbox_.id(), g);
    }
    if (on_transitional_) on_transitional_(g);
  });
}

void FlushMailbox::join(const gcs::GroupName& group) { mbox_.join(group); }

void FlushMailbox::leave(const gcs::GroupName& group) { mbox_.leave(group); }

bool FlushMailbox::flushing(const gcs::GroupName& group) const {
  auto it = state_.find(group);
  return it != state_.end() && it->second.is_flushing;
}

const gcs::GroupView* FlushMailbox::current_view(const gcs::GroupName& group) const {
  auto it = state_.find(group);
  return it != state_.end() && it->second.has_view ? &it->second.current : nullptr;
}

bool FlushMailbox::send(gcs::ServiceType service, const gcs::GroupName& group,
                        util::SharedBytes payload, std::int16_t msg_type) {
  if (msg_type <= kFlushReservedType) return false;  // reserved range
  auto it = state_.find(group);
  if (it == state_.end() || !it->second.has_view || it->second.is_flushing) return false;
  // The payload is chained, then gathered once with the envelope.
  mbox_.multicast(service, group,
                  util::encode_shared(
                      DataEnvelope{it->second.current.view_id, msg_type, std::move(payload)}),
                  kFlushDataType);
  return true;
}

void FlushMailbox::unicast(const gcs::MemberId& to, const gcs::GroupName& group,
                           util::SharedBytes payload, std::int16_t msg_type) {
  mbox_.unicast(to, group, std::move(payload), msg_type);
}

void FlushMailbox::flush_ok(const gcs::GroupName& group) {
  auto it = state_.find(group);
  if (it == state_.end() || !it->second.is_flushing || it->second.sent_ok) return;
  send_flush_ok(group, it->second);
}

void FlushMailbox::send_flush_ok(const gcs::GroupName& group, GroupState& st) {
  st.sent_ok = true;
  // Agreed, not FIFO: the daemon addresses multicasts to the group
  // membership it holds when it *delivers* them, and FIFO delivery can
  // overtake the agreed stream. A FIFO marker racing ahead of a pending
  // agreed join would be dropped for the joining member (not yet in the
  // group map at its daemon) and never resent — wedging that member in
  // the flush forever. Any FLUSH_OK is sent only after its sender's
  // daemon agreed-delivered the change creating the pending view, so the
  // sequencer stamped the change first; in the total order every marker
  // therefore follows the change and reaches the new member too.
  mbox_.multicast(gcs::ServiceType::kAgreed, group, util::encode(st.pending.view_id),
                  kFlushOkType);
}

void FlushMailbox::handle_raw_view(const gcs::GroupView& view) {
  if (view.reason == gcs::MembershipReason::kSelfLeave) {
    state_.erase(view.group);
    deliver_app_view(view);
    return;
  }

  GroupState& st = state_[view.group];
  if (st.is_flushing && !st.buffered.empty()) {
    // Cascade: the view we were flushing toward was superseded. Deliver what
    // was buffered for it (EVS-grade guarantee during cascades), in order.
    for (const gcs::Message& m : st.buffered) deliver_app_message(m);
  }
  st.buffered.clear();
  st.is_flushing = true;
  // One lane per (client, group): a cascade ends the superseded round's
  // span and opens a fresh one in place.
  st.round_span.begin("flush", "flush_round", mbox_.id().daemon,
                      obs::trace_lane(1, mbox_.id().client, view.group),
                      {{"group", view.group}, {"members", view.members.size()}});
  st.sent_ok = false;
  st.pending = view;
  st.oks.clear();

  // Collect acknowledgements that raced ahead of the view.
  auto early = early_oks_.find(view.view_id);
  if (early != early_oks_.end()) {
    st.oks = std::move(early->second);
    early_oks_.erase(early);
  }

  if (!st.has_view) {
    // Joining member: nothing to flush, acknowledge immediately.
    send_flush_ok(view.group, st);
  } else if (on_flush_request_) {
    on_flush_request_(view.group);
  }
  maybe_install(view.group);
}

void FlushMailbox::handle_raw_message(const gcs::Message& msg) {
  if (msg.msg_type == kFlushOkType) {
    gcs::GroupViewId vid;
    try {
      vid = util::decode<gcs::GroupViewId>(msg.payload);
    } catch (const util::SerialError&) {
      return;
    }
    auto it = state_.find(msg.group);
    if (it != state_.end() && it->second.is_flushing && it->second.pending.view_id == vid) {
      it->second.oks.insert(msg.sender);
      maybe_install(msg.group);
    } else {
      early_oks_[vid].insert(msg.sender);
    }
    return;
  }

  if (msg.msg_type != kFlushDataType) {
    // Raw traffic from a non-flush client (open-group sender): not part of
    // the VS contract; surface it unchanged.
    deliver_app_message(msg);
    return;
  }

  DataEnvelope u;
  try {
    u = util::decode<DataEnvelope>(msg.payload);  // payload: a zero-copy slice
  } catch (const util::SerialError&) {
    return;
  }
  gcs::Message app = msg;
  app.msg_type = u.app_type;
  app.payload = std::move(u.payload);
  app.view_id = u.vid;

  auto it = state_.find(msg.group);
  if (it == state_.end()) return;
  GroupState& st = it->second;
  if (st.has_view && u.vid == st.current.view_id) {
    // Sent in our installed view (this covers both normal operation and
    // old-view traffic still arriving during a flush).
    deliver_app_message(app);
  } else if (st.is_flushing && u.vid == st.pending.view_id) {
    // Sent by a member that installed the pending view before us.
    st.buffered.push_back(std::move(app));
  }
  // Anything else: a view this member never installs; drop.
}

void FlushMailbox::maybe_install(const gcs::GroupName& group) {
  auto it = state_.find(group);
  if (it == state_.end()) return;
  GroupState& st = it->second;
  if (!st.is_flushing) return;
  for (const gcs::MemberId& m : st.pending.members) {
    if (!st.oks.contains(m)) return;
  }
  st.is_flushing = false;
  st.round_span.end({{"members", st.pending.members.size()}});
  rounds_completed_.inc();
  st.has_view = true;
  st.current = st.pending;
  st.oks.clear();
  std::vector<gcs::Message> buffered = std::move(st.buffered);
  st.buffered.clear();
  deliver_app_view(st.current);
  for (const gcs::Message& m : buffered) deliver_app_message(m);
}

void FlushMailbox::deliver_app_message(const gcs::Message& msg) {
  if (gcs::ClientTrace* t = gcs::ClientTrace::global()) {
    t->on_message(gcs::TraceLayer::kFlush, mbox_.id(), msg);
  }
  if (on_message_) on_message_(msg);
}

void FlushMailbox::deliver_app_view(const gcs::GroupView& view) {
  if (gcs::ClientTrace* t = gcs::ClientTrace::global()) {
    t->on_view(gcs::TraceLayer::kFlush, mbox_.id(), view);
  }
  if (on_view_) on_view_(view);
}

}  // namespace ss::flush
