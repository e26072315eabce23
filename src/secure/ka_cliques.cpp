#include "secure/ka_cliques.h"

#include <algorithm>

#include "crypto/exp_counter.h"
#include "secure/ka_ckd.h"
#include "secure/ka_tgdh.h"
#include "util/log.h"

namespace ss::secure {

using cliques::ClqBroadcastMsg;
using cliques::ClqFactorOutMsg;
using cliques::ClqHandoffMsg;
using cliques::ClqMergeChainMsg;
using cliques::ClqMergePartialMsg;
using gcs::MemberId;

void KaActions::merge(KaActions&& other) {
  for (auto& u : other.unicasts) unicasts.push_back(std::move(u));
  for (auto& m : other.multicasts) multicasts.push_back(std::move(m));
  key_ready = key_ready || other.key_ready;
}

KaRegistry& KaRegistry::instance() {
  static KaRegistry registry = [] {
    KaRegistry r;
    r.register_module("cliques", [](const KaModuleEnv& env) {
      return std::make_unique<CliquesKaModule>(env);
    });
    // CKD and TGDH registered here too: self-registering statics in a
    // static library are dropped by the linker unless their object file is
    // referenced.
    r.register_module("ckd", [](const KaModuleEnv& env) {
      return std::make_unique<CkdKaModule>(env);
    });
    r.register_module("tgdh", [](const KaModuleEnv& env) {
      return std::make_unique<TgdhKaModule>(env);
    });
    return r;
  }();
  return registry;
}

void KaRegistry::register_module(const std::string& name, Factory factory) {
  factories_[name] = std::move(factory);
}

std::vector<std::string> KaRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

std::unique_ptr<KeyAgreementModule> KaRegistry::create(const std::string& name,
                                                       const KaModuleEnv& env) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) throw std::out_of_range("KaRegistry: unknown module " + name);
  return it->second(env);
}

CliquesKaModule::CliquesKaModule(const KaModuleEnv& env) : env_(env) { reset_context(); }

void CliquesKaModule::reset_context() {
  ctx_ = std::make_unique<cliques::ClqContext>(*env_.dh, *env_.directory, env_.self, *env_.rnd);
}

std::vector<MemberId> CliquesKaModule::keyed_members() const { return ctx_->members(); }

std::vector<MemberId> CliquesKaModule::keyed_in(const gcs::GroupView& view) const {
  std::vector<MemberId> keyed;
  const auto& known = ctx_->members();
  for (const auto& m : view.members) {
    if (std::find(known.begin(), known.end(), m) != known.end()) keyed.push_back(m);
  }
  return keyed;
}

bool CliquesKaModule::is_merge_initiator(const gcs::GroupView& view,
                                         const std::vector<MemberId>& keyed) const {
  // The initiating side is the one holding the group's oldest member; its
  // newest keyed member runs the merge.
  if (keyed.empty()) return false;
  const MemberId& oldest = view.members.front();
  if (std::find(keyed.begin(), keyed.end(), oldest) == keyed.end()) return false;
  return keyed.back() == env_.self;
}

KaActions CliquesKaModule::on_membership(const KaMembershipEvent& event) {
  const gcs::GroupView& view = event.view;
  view_ = view;
  have_view_ = true;
  keyed_current_ = false;

  if (view.members.size() == 1 && view.members.front() == env_.self) {
    // Alone: fresh singleton context, keyed at creation.
    reset_context();
    keyed_current_ = true;
    KaActions a;
    a.key_ready = true;
    return a;
  }

  // New to this agreement (in the batch's aggregate join set — for a
  // singleton batch that is exactly the view's own joined list).
  const bool i_am_new =
      std::find(event.joined.begin(), event.joined.end(), env_.self) != event.joined.end();
  if (i_am_new) {
    // Joining/merging member: fresh context; wait for handoff or chain.
    reset_context();
    return none();
  }

  // A joined member we still hold a share for left and rejoined within the
  // batch (it appears in both lists): its old share is void. Drop it so the
  // role selection below re-admits it through the normal join/merge path.
  for (const auto& m : event.joined) ctx_->forget(m);

  return start_operation();
}

KaActions CliquesKaModule::start_operation() {
  const gcs::GroupView& view = view_;
  std::vector<MemberId> keyed = keyed_in(view);
  std::vector<MemberId> unkeyed;
  for (const auto& m : view.members) {
    if (std::find(keyed.begin(), keyed.end(), m) == keyed.end()) unkeyed.push_back(m);
  }
  std::vector<MemberId> leavers;
  for (const auto& m : ctx_->members()) {
    if (!view.contains(m)) leavers.push_back(m);
  }

  KaActions actions;
  if (unkeyed.empty()) {
    // Pure leave (voluntary leave, disconnect or partition — Table 1 maps
    // all three to LEAVE). Issued by the newest surviving keyed member.
    if (keyed.empty() || keyed.back() != env_.self) return actions;
    try {
      const ClqBroadcastMsg bc = ctx_->leave(leavers);
      actions.multicasts.push_back(
          {static_cast<std::int16_t>(KaMsgType::kClqBroadcast), bc.encode()});
      keyed_current_ = true;
      actions.key_ready = true;
    } catch (const std::logic_error&) {
      // Stale partial set after cascaded controller loss: recovery rekey.
      SS_LOG_INFO("clq-ka", env_.self.to_string(), " recovery rekey for ", view.group);
      const ClqMergePartialMsg partial = ctx_->recovery_begin(view.members);
      actions.multicasts.push_back(
          {static_cast<std::int16_t>(KaMsgType::kClqMergePartial), partial.encode()});
    }
    return actions;
  }

  // Members without our key exist: merge them (covers Join-by-merge,
  // Merge, Partition+Merge cascades).
  if (!is_merge_initiator(view, keyed)) return actions;
  if (view.reason == gcs::MembershipReason::kJoin && unkeyed.size() == 1 && leavers.empty()) {
    try {
      const ClqHandoffMsg handoff = ctx_->join_handoff(unkeyed.front());
      actions.unicasts.push_back({unkeyed.front(),
                                  static_cast<std::int16_t>(KaMsgType::kClqHandoff),
                                  handoff.encode()});
      return actions;
    } catch (const std::logic_error&) {
      // Stale set: fall through to the merge path.
    }
  }
  const ClqMergeChainMsg chain = ctx_->merge_begin(unkeyed);
  actions.unicasts.push_back({unkeyed.front(),
                              static_cast<std::int16_t>(KaMsgType::kClqMergeChain),
                              chain.encode()});
  return actions;
}

KaActions CliquesKaModule::on_message(const gcs::Message& msg) {
  if (!have_view_) return none();
  KaActions actions;
  try {
    switch (static_cast<KaMsgType>(msg.msg_type)) {
      case KaMsgType::kClqHandoff: {
        const auto handoff = util::decode<ClqHandoffMsg>(msg.payload);
        if (handoff.new_member != env_.self) break;
        const ClqBroadcastMsg bc = ctx_->join_finalize(handoff, view_.members);
        actions.multicasts.push_back(
            {static_cast<std::int16_t>(KaMsgType::kClqBroadcast), bc.encode()});
        keyed_current_ = true;
        actions.key_ready = true;
        break;
      }
      case KaMsgType::kClqBroadcast: {
        const auto bc = util::decode<ClqBroadcastMsg>(msg.payload);
        if (bc.controller == env_.self) break;  // own echo
        ctx_->process_broadcast(bc, view_.members);
        keyed_current_ = true;
        actions.key_ready = true;
        break;
      }
      case KaMsgType::kClqMergeChain: {
        const auto chain = util::decode<ClqMergeChainMsg>(msg.payload);
        if (chain.pending.empty() || chain.pending.front() != env_.self) break;
        auto [next, partial] = ctx_->merge_chain(chain, view_.members);
        if (next) {
          actions.unicasts.push_back({next->pending.front(),
                                      static_cast<std::int16_t>(KaMsgType::kClqMergeChain),
                                      next->encode()});
        }
        if (partial) {
          actions.multicasts.push_back(
              {static_cast<std::int16_t>(KaMsgType::kClqMergePartial), partial->encode()});
        }
        break;
      }
      case KaMsgType::kClqMergePartial: {
        const auto partial = util::decode<ClqMergePartialMsg>(msg.payload);
        if (partial.new_controller == env_.self) break;  // own echo
        const ClqFactorOutMsg fo = ctx_->merge_factor_out(partial, view_.members);
        actions.unicasts.push_back({partial.new_controller,
                                    static_cast<std::int16_t>(KaMsgType::kClqFactorOut),
                                    fo.encode()});
        break;
      }
      case KaMsgType::kClqFactorOut: {
        const auto fo = util::decode<ClqFactorOutMsg>(msg.payload);
        auto bc = ctx_->merge_collect(fo);
        if (bc) {
          actions.multicasts.push_back(
              {static_cast<std::int16_t>(KaMsgType::kClqBroadcast), bc->encode()});
          keyed_current_ = true;
          actions.key_ready = true;
        }
        break;
      }
      case KaMsgType::kRefreshRequest:
        // Only the controller acts on refresh requests.
        if (!view_.members.empty() && keyed_in(view_).back() == env_.self && keyed_current_) {
          return request_refresh();
        }
        break;
      default:
        break;
    }
  } catch (const std::exception& e) {
    SS_LOG_WARN("clq-ka", env_.self.to_string(), " dropped protocol message: ", e.what());
    return none();
  }
  return actions;
}

KaActions CliquesKaModule::request_refresh() {
  KaActions actions;
  if (!have_view_) return actions;
  const std::vector<MemberId> keyed = keyed_in(view_);
  if (keyed_current_ && !keyed.empty() && keyed.back() == env_.self) {
    try {
      const ClqBroadcastMsg bc = ctx_->refresh();
      actions.multicasts.push_back(
          {static_cast<std::int16_t>(KaMsgType::kClqBroadcast), bc.encode()});
      actions.key_ready = true;
    } catch (const std::logic_error&) {
      const ClqMergePartialMsg partial = ctx_->recovery_begin(view_.members);
      actions.multicasts.push_back(
          {static_cast<std::int16_t>(KaMsgType::kClqMergePartial), partial.encode()});
    }
    return actions;
  }
  // Not the controller: ask it to refresh.
  actions.multicasts.push_back({static_cast<std::int16_t>(KaMsgType::kRefreshRequest), {}});
  return actions;
}

util::Bytes CliquesKaModule::session_key(std::size_t len) const { return ctx_->session_key(len); }

std::optional<crypto::Bignum> CliquesKaModule::member_secret() const {
  if (!has_key()) return std::nullopt;
  return ctx_->share();
}

std::optional<crypto::Bignum> CliquesKaModule::member_commitment() const {
  if (!has_key()) return std::nullopt;
  crypto::detail::ExpTallySuspender suspend;  // authentication machinery
  return env_.dh->exp_g(ctx_->share());
}

}  // namespace ss::secure
