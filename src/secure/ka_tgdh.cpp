#include "secure/ka_tgdh.h"

#include <algorithm>

#include "crypto/exp_counter.h"
#include "crypto/hmac.h"
#include "util/log.h"
#include "util/serial.h"

namespace ss::secure {

using crypto::Bignum;
using crypto::KeyTreeNodeId;
using gcs::MemberId;

namespace {

constexpr KeyTreeNodeId kRootId{};

bool contains_member(const std::vector<MemberId>& v, const MemberId& m) {
  return std::find(v.begin(), v.end(), m) != v.end();
}

}  // namespace

TgdhKaModule::TgdhKaModule(const KaModuleEnv& env) : env_(env) {}

std::size_t TgdhKaModule::tree_depth() const {
  std::size_t depth = 0;
  for (const auto& [id, leaf] : tree_.leaf_layout()) {
    depth = std::max(depth, static_cast<std::size_t>(id.depth));
  }
  return depth;
}

std::optional<MemberId> TgdhKaModule::batch_sponsor(
    const std::vector<MemberId>& joined) const {
  const auto layout = tree_.leaf_layout();
  for (auto it = layout.rbegin(); it != layout.rend(); ++it) {
    const MemberId m = mid_of(it->second);
    if (!contains_member(joined, m)) return m;
  }
  return std::nullopt;
}

bool TgdhKaModule::i_am_root_sponsor() const {
  return have_shape_ && !tree_.empty() && tree_.sponsor_of(kRootId) == lid(env_.self);
}

KaActions TgdhKaModule::on_membership(const KaMembershipEvent& event) {
  KaActions out;
  const gcs::GroupView& view = event.view;
  view_ = view;
  have_view_ = true;
  keyed_current_ = false;
  refresh_round_ = 0;
  const bool first_event = !saw_membership_;
  saw_membership_ = true;

  if (view.members.size() == 1 && view.members.front() == env_.self) {
    // Alone: single-leaf tree, keyed immediately.
    pending_leaf_bks_.clear();
    tree_.build({lid(env_.self)});
    my_secret_ = env_.dh->random_share(*env_.rnd);
    tree_.set_leaf_secret(lid(env_.self), *env_.dh, *my_secret_);
    have_shape_ = true;
    climb_and_broadcast(out, false);
    return out;
  }

  const bool i_am_new = contains_member(event.joined, env_.self);
  const bool everyone_new = std::all_of(
      view.members.begin(), view.members.end(),
      [&](const MemberId& m) { return contains_member(event.joined, m); });
  // A GCS may fold the group's formation into one view: our very first event
  // then shows us as an established member even though we hold no tree. If a
  // genuine survivor exists it will sponsor us like any joiner, so only the
  // FIRST non-joined member in view order may assume the bootstrap — it
  // builds the tree and announces the shape in full; every other shapeless
  // member keeps waiting for that snapshot in the branch below.
  bool bootstrap_leader = false;
  for (const auto& m : view.members) {
    if (contains_member(event.joined, m)) continue;
    bootstrap_leader = (m == env_.self);
    break;
  }
  const bool folded_formation =
      first_event && !i_am_new && !have_shape_ && bootstrap_leader;

  if (everyone_new || folded_formation) {
    // Bootstrap: nobody holds a tree, so every member builds the identical
    // one from the view and contributes a leaf; keys converge as the leaf
    // broadcasts arrive.
    pending_leaf_bks_.clear();
    std::vector<crypto::KeyTree::LeafId> leaves;
    for (const auto& m : view.members) leaves.push_back(lid(m));
    tree_.build(leaves);
    my_secret_ = env_.dh->random_share(*env_.rnd);
    tree_.set_leaf_secret(lid(env_.self), *env_.dh, *my_secret_);
    have_shape_ = true;
    out.multicasts.push_back({static_cast<std::int16_t>(KaMsgType::kTgdhLeafKey),
                              TgdhLeafKeyMsg{env_.self, *tree_.blinded(tree_.leaf_node(
                                                        lid(env_.self)))}
                                  .encode()});
    climb_and_broadcast(out, /*must_send_full=*/!everyone_new);
    return out;
  }

  if (i_am_new || !have_shape_) {
    // Joining: we do not know the tree; announce a fresh leaf key and wait
    // for a sponsor snapshot to learn the shape (epoch restart on rejoin).
    have_shape_ = false;
    tree_ = crypto::KeyTree();
    pending_leaf_bks_.clear();
    current_root_.reset();
    my_secret_ = env_.dh->random_share(*env_.rnd);
    Bignum my_bk;
    {
      crypto::ExpPurposeScope scope(crypto::ExpPurpose::kUpdateKeyShare);
      my_bk = env_.dh->exp_g(*my_secret_);
    }
    out.multicasts.push_back({static_cast<std::int16_t>(KaMsgType::kTgdhLeafKey),
                              TgdhLeafKeyMsg{env_.self, my_bk}.encode()});
    return out;
  }

  // Survivor: evolve the tree deterministically. The joiners are the
  // event's joined members plus every view member the tree does not hold:
  // the flush layer can collapse a cascade into one view whose joined list
  // omits members that are new here (a alone, then b, d and e join and b
  // leaves: everyone installs {a, d, e} with joined = []). Drop every leaf
  // that left the view AND every leaf the batch re-admits (a member that
  // left and rejoined within the window appears in both lists: it
  // restarted with fresh state, and keeping its old blinded key would make
  // set_blinded refuse its fresh leaf-key broadcast). Then insert every
  // joiner (view order). Each survivor applies the same mutation to the
  // same tree, so shapes stay identical with no negotiation.
  std::vector<MemberId> joiners = event.joined;
  for (const auto& m : view.members) {
    if (!tree_.contains(lid(m)) && !contains_member(joiners, m)) joiners.push_back(m);
  }
  std::vector<crypto::KeyTree::LeafId> stale;
  for (const auto& [id, leaf] : tree_.leaf_layout()) {
    const MemberId m = mid_of(leaf);
    if (!view.contains(m) || contains_member(joiners, m)) stale.push_back(leaf);
  }
  for (const auto leaf : stale) tree_.remove_leaf(leaf);
  for (const auto& m : view.members) {
    if (!tree_.contains(lid(m))) tree_.insert_leaf(lid(m));
  }

  // The batch sponsor (rightmost surviving leaf) refreshes its leaf secret:
  // guarantees the root key changes every batch and locks leavers out even
  // when the collapse alone would not.
  const std::optional<MemberId> sponsor = batch_sponsor(joiners);
  if (sponsor.has_value()) {
    if (*sponsor == env_.self) {
      my_secret_ = env_.dh->random_share(*env_.rnd);
      tree_.set_leaf_secret(lid(env_.self), *env_.dh, *my_secret_);
    } else {
      tree_.clear_leaf_key(lid(*sponsor));
    }
  }

  // A joiner learns the shape (and its whole climbing path — the ancestors
  // it shares with its sibling) from its direct sibling's snapshot, so the
  // sibling must broadcast even without fresh sponsored nodes. Everyone
  // else broadcasts only on sponsor duty: traffic stays O(joins), not O(n).
  bool joiner_sibling = false;
  if (tree_.contains(lid(env_.self))) {
    const KeyTreeNodeId mine = tree_.leaf_node(lid(env_.self));
    for (const auto& m : joiners) {
      if (!tree_.contains(lid(m))) continue;
      const KeyTreeNodeId theirs = tree_.leaf_node(lid(m));
      if (theirs.depth == mine.depth && theirs.depth > 0 &&
          (theirs.path >> 1) == (mine.path >> 1)) {
        joiner_sibling = true;
        break;
      }
    }
  }
  climb_and_broadcast(out, /*must_send=*/sponsor == env_.self || joiner_sibling);
  return out;
}

void TgdhKaModule::climb_and_broadcast(KaActions& out, bool must_send_full) {
  const std::vector<KeyTreeNodeId> fresh = tree_.climb(lid(env_.self), *env_.dh);
  bool duty = must_send_full;
  for (const auto& id : fresh) {
    if (tree_.sponsor_of(id) == lid(env_.self)) duty = true;
  }
  if (duty && have_shape_ && tree_.leaf_count() > 1) {
    // Full snapshots (leaf layout + every known blinded, O(n)) are sent
    // only when a joiner has to adopt the shape or a refresh round must be
    // announced; routine propagation of freshly sponsored nodes sends just
    // this member's own root path (O(log n)) — at scale the difference is
    // an O(n^2) vs O(n^3) group formation.
    out.multicasts.push_back({static_cast<std::int16_t>(KaMsgType::kTgdhUpdate),
                              encode_update(/*full=*/must_send_full)});
  }
  if (tree_.has_root_secret()) {
    const Bignum& root = tree_.root_secret();
    if (!current_root_.has_value() || *current_root_ != root) {
      current_root_ = root;
      keyed_current_ = true;
      out.key_ready = true;
    }
  }
}

util::Bytes TgdhKaModule::encode_update(bool full) const {
  TgdhUpdateMsg msg;
  msg.sender = env_.self;
  msg.round = refresh_round_;
  if (full) {
    for (const auto& [id, leaf] : tree_.leaf_layout()) {
      msg.leaves.emplace_back(id, mid_of(leaf));
    }
    msg.blindeds = tree_.known_blindeds();
  } else {
    // Delta: empty layout marks it; only this member's own path travels.
    msg.blindeds = tree_.path_blindeds(lid(env_.self));
  }
  return msg.encode();
}

KaActions TgdhKaModule::on_message(const gcs::Message& msg) {
  if (!have_view_) return none();
  KaActions actions;
  try {
    switch (static_cast<KaMsgType>(msg.msg_type)) {
      case KaMsgType::kTgdhLeafKey: {
        const auto leaf = util::decode<TgdhLeafKeyMsg>(msg.payload);
        if (leaf.member == env_.self) break;  // own echo
        if (!view_.contains(leaf.member)) break;
        {
          // Subgroup validation is input hardening on public values, not
          // protocol work: keep it out of the per-operation exp counts.
          crypto::detail::ExpTallySuspender suspend;
          if (!env_.dh->is_valid_element(leaf.bk)) break;
        }
        if (!have_shape_) {
          pending_leaf_bks_[leaf.member] = leaf.bk;
          break;
        }
        if (!tree_.contains(lid(leaf.member))) break;
        if (!tree_.set_blinded(tree_.leaf_node(lid(leaf.member)), leaf.bk)) break;
        climb_and_broadcast(actions, false);
        break;
      }
      case KaMsgType::kTgdhUpdate: {
        const auto update = util::decode<TgdhUpdateMsg>(msg.payload);
        if (update.sender == env_.self) break;  // own echo
        if (!view_.contains(update.sender)) break;
        return merge_update(update);
      }
      case KaMsgType::kRefreshRequest:
        if (i_am_root_sponsor() && keyed_current_) return request_refresh();
        break;
      default:
        break;
    }
  } catch (const std::exception& e) {
    SS_LOG_WARN("tgdh-ka", env_.self.to_string(), " dropped protocol message: ", e.what());
    return none();
  }
  return actions;
}

KaActions TgdhKaModule::merge_update(const TgdhUpdateMsg& update) {
  KaActions out;
  if (update.round < refresh_round_) return out;  // pre-refresh snapshot

  if (update.leaves.empty()) {
    // Delta update: the sender's own-path blindeds, usable only by members
    // that already hold the shape. Refresh rounds are announced via full
    // snapshots, which the totally-ordered multicast delivers before any
    // delta built on them — a round-advancing delta is out-of-protocol.
    if (!have_shape_ || update.round != refresh_round_) return out;
  } else if (!have_shape_) {
    // Adopt the shape: the layout must describe exactly the current view's
    // membership (anything else is stale or foreign).
    if (update.leaves.size() != view_.members.size()) return out;
    for (const auto& [id, m] : update.leaves) {
      if (!view_.contains(m)) return out;
    }
    std::vector<std::pair<KeyTreeNodeId, crypto::KeyTree::LeafId>> layout;
    layout.reserve(update.leaves.size());
    for (const auto& [id, m] : update.leaves) layout.emplace_back(id, lid(m));
    tree_.load(layout);
    if (!tree_.contains(lid(env_.self))) {
      tree_ = crypto::KeyTree();
      return out;
    }
    have_shape_ = true;
    refresh_round_ = update.round;
    if (!my_secret_.has_value()) my_secret_ = env_.dh->random_share(*env_.rnd);
    tree_.set_leaf_secret(lid(env_.self), *env_.dh, *my_secret_);
    for (const auto& [m, bk] : pending_leaf_bks_) {
      if (tree_.contains(lid(m))) tree_.set_blinded(tree_.leaf_node(lid(m)), bk);
    }
    pending_leaf_bks_.clear();
  } else {
    // Shape holders evolved the same tree; a differing layout is stale or
    // corrupt — drop.
    const auto mine = tree_.leaf_layout();
    if (update.leaves.size() != mine.size()) return out;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      if (update.leaves[i].first != mine[i].first ||
          lid(update.leaves[i].second) != mine[i].second) {
        return out;
      }
    }
    if (update.round > refresh_round_) {
      // A refresh happened: the sender's path keys supersede cached ones.
      refresh_round_ = update.round;
      const KeyTreeNodeId my_leaf = tree_.leaf_node(lid(env_.self));
      crypto::detail::ExpTallySuspender suspend;
      for (const auto& [id, bk] : update.blindeds) {
        if (id == my_leaf) continue;  // our leaf key is ours alone
        const std::optional<Bignum> cur = tree_.blinded(id);
        if (cur.has_value() && *cur == bk) continue;  // unchanged: no re-check
        if (env_.dh->is_valid_element(bk)) tree_.replace_blinded(id, bk);
      }
    }
  }

  {
    crypto::detail::ExpTallySuspender suspend;
    for (const auto& [id, bk] : update.blindeds) {
      // set_blinded only fills absent slots, so a node we already hold
      // needs no subgroup check — snapshots mostly repeat known values,
      // and validating each repeat is a full exponentiation.
      if (tree_.blinded(id).has_value()) continue;
      if (env_.dh->is_valid_element(bk)) tree_.set_blinded(id, bk);
    }
  }
  climb_and_broadcast(out, false);
  return out;
}

KaActions TgdhKaModule::request_refresh() {
  KaActions actions;
  if (!have_view_ || !have_shape_) return actions;
  if (i_am_root_sponsor()) {
    if (!keyed_current_) return actions;  // agreement in progress anyway
    ++refresh_round_;
    my_secret_ = env_.dh->random_share(*env_.rnd);
    tree_.set_leaf_secret(lid(env_.self), *env_.dh, *my_secret_);
    climb_and_broadcast(actions, true);
    return actions;
  }
  // Not the root sponsor: ask it to refresh.
  actions.multicasts.push_back({static_cast<std::int16_t>(KaMsgType::kRefreshRequest), {}});
  return actions;
}

util::Bytes TgdhKaModule::session_key(std::size_t len) const {
  if (!current_root_.has_value()) {
    throw std::logic_error("TgdhKaModule: no session key");
  }
  return crypto::kdf_sha1(current_root_->to_bytes(), "tgdh-session-key", len);
}

std::optional<Bignum> TgdhKaModule::member_secret() const {
  if (!has_key() || !my_secret_.has_value()) return std::nullopt;
  return my_secret_;
}

std::optional<Bignum> TgdhKaModule::member_commitment() const {
  if (!has_key() || !my_secret_.has_value()) return std::nullopt;
  crypto::detail::ExpTallySuspender suspend;  // authentication machinery
  return env_.dh->exp_g(*my_secret_);
}

}  // namespace ss::secure
