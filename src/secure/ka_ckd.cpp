#include "secure/ka_ckd.h"

#include <algorithm>

#include "util/log.h"

namespace ss::secure {

using ckd::CkdKeyDistMsg;
using ckd::CkdRound1Msg;
using ckd::CkdRound2Msg;
using gcs::MemberId;

CkdKaModule::CkdKaModule(const KaModuleEnv& env) : env_(env) { reset_context(); }

void CkdKaModule::reset_context() {
  ctx_ = std::make_unique<ckd::CkdContext>(*env_.dh, *env_.directory, env_.self, *env_.rnd);
}

KaActions CkdKaModule::distribute() {
  KaActions actions;
  if (!ctx_->pairwise_ready(view_.members)) return actions;
  const CkdKeyDistMsg dist = ctx_->distribute(view_.members);
  actions.multicasts.push_back(
      {static_cast<std::int16_t>(KaMsgType::kCkdKeyDist), dist.encode()});
  keyed_current_ = true;
  actions.key_ready = true;
  return actions;
}

KaActions CkdKaModule::on_membership(const KaMembershipEvent& event) {
  const gcs::GroupView& view = event.view;
  const MemberId previous_controller = last_controller_;
  view_ = view;
  have_view_ = true;
  keyed_current_ = false;
  last_controller_ = view.members.empty() ? MemberId{} : view.members.front();

  if (view.members.size() == 1 && view.members.front() == env_.self) {
    reset_context();
    // process-wide singleton: context constructor generated a key.
    ctx_->distribute(view.members);  // refresh Ks for the new epoch
    keyed_current_ = true;
    KaActions a;
    a.key_ready = true;
    return a;
  }

  if (i_am_controller()) {
    // Drop pairwise keys with members that departed — the batch's aggregate
    // leave set, so a coalesced cascade forgets every leaver at once.
    for (const auto& m : event.left) ctx_->forget_pairwise(m);
    if (previous_controller != env_.self) {
      // Just became controller (predecessor departed): start from scratch.
      ctx_->reset_pairwise();
    }
    KaActions actions;
    for (auto& [target, r1] : ctx_->pairwise_begin(view.members)) {
      actions.unicasts.push_back(
          {target, static_cast<std::int16_t>(KaMsgType::kCkdRound1), r1.encode()});
    }
    actions.merge(distribute());
    return actions;
  }

  // Regular member: if the controller changed, our old blinding key is
  // useless; expect a fresh Round 1.
  if (previous_controller != last_controller_) {
    ctx_->forget_pairwise(previous_controller);
  }
  return none();
}

KaActions CkdKaModule::on_message(const gcs::Message& msg) {
  if (!have_view_) return none();
  KaActions actions;
  try {
    switch (static_cast<KaMsgType>(msg.msg_type)) {
      case KaMsgType::kCkdRound1: {
        const auto r1 = util::decode<CkdRound1Msg>(msg.payload);
        if (r1.controller != view_.members.front()) break;  // stale controller
        const CkdRound2Msg r2 = ctx_->pairwise_respond(r1);
        actions.unicasts.push_back(
            {r1.controller, static_cast<std::int16_t>(KaMsgType::kCkdRound2), r2.encode()});
        break;
      }
      case KaMsgType::kCkdRound2: {
        if (!i_am_controller()) break;
        const auto r2 = util::decode<CkdRound2Msg>(msg.payload);
        if (!view_.contains(r2.member)) break;
        ctx_->pairwise_complete(r2);
        return distribute();
      }
      case KaMsgType::kCkdKeyDist: {
        const auto dist = util::decode<CkdKeyDistMsg>(msg.payload);
        if (dist.controller == env_.self) break;  // own echo
        ctx_->process_key_dist(dist, view_.members);
        keyed_current_ = true;
        actions.key_ready = true;
        break;
      }
      case KaMsgType::kRefreshRequest:
        if (i_am_controller() && keyed_current_) return request_refresh();
        break;
      default:
        break;
    }
  } catch (const std::exception& e) {
    SS_LOG_WARN("ckd-ka", env_.self.to_string(), " dropped protocol message: ", e.what());
    return none();
  }
  return actions;
}

KaActions CkdKaModule::request_refresh() {
  KaActions actions;
  if (!have_view_) return actions;
  if (i_am_controller()) return distribute();
  actions.multicasts.push_back({static_cast<std::int16_t>(KaMsgType::kRefreshRequest), {}});
  return actions;
}

util::Bytes CkdKaModule::session_key(std::size_t len) const { return ctx_->session_key(len); }

}  // namespace ss::secure
