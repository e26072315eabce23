// TGDH key-agreement module: tree-based group Diffie-Hellman over the
// batched membership contract. Where Cliques pays O(n) serial
// exponentiations per membership event, TGDH keeps member shares in a
// binary key tree (crypto/key_tree.h) and a rekey only recomputes the
// paths a batch touched — O(log n) exponentiations per member, which is
// what lets the reproduction reach the ROADMAP's 500-5000 member groups.
//
// Protocol shape (sponsor-based, gossip-converging):
//   - every member evolves the tree deterministically from the batch, so
//     shape needs no negotiation; joiners (who lack the tree) learn it from
//     the first snapshot they receive;
//   - a joiner broadcasts a fresh leaf blinded key (kTgdhLeafKey);
//   - the batch sponsor — the rightmost surviving leaf — refreshes its own
//     leaf secret (key freshness / leaver lockout) and broadcasts;
//   - any member that climbs and computes blinded keys for nodes it
//     sponsors (it is the rightmost leaf underneath) broadcasts a snapshot
//     (kTgdhUpdate: leaf layout + every known blinded key); each broadcast
//     lets more members climb, converging in at most depth rounds;
//   - a key refresh bumps an in-view round counter so refreshed path keys
//     replace cached ones without racing stale snapshots.
#pragma once

#include <map>

#include "crypto/key_tree.h"
#include "secure/ka_module.h"

namespace ss::secure {

/// Joiner/bootstrap announcement: one member's fresh leaf blinded key.
struct TgdhLeafKeyMsg {
  gcs::MemberId member;
  crypto::Bignum bk;

  template <class S>
  void fields(S& s) {
    s(member, bk);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

/// Sponsor snapshot: the full leaf layout (shape proof) plus every blinded
/// key the sender knows, tagged with the in-view refresh round.
struct TgdhUpdateMsg {
  gcs::MemberId sender;
  std::uint32_t round = 0;
  std::vector<std::pair<crypto::KeyTreeNodeId, gcs::MemberId>> leaves;
  std::vector<std::pair<crypto::KeyTreeNodeId, crypto::Bignum>> blindeds;

  template <class S>
  void fields(S& s) {
    s(sender, round, leaves, blindeds);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

class TgdhKaModule final : public KeyAgreementModule {
 public:
  explicit TgdhKaModule(const KaModuleEnv& env);

  std::string name() const override { return "tgdh"; }
  KaActions on_membership(const KaMembershipEvent& event) override;
  KaActions on_message(const gcs::Message& msg) override;
  KaActions request_refresh() override;
  util::Bytes session_key(std::size_t len) const override;
  bool has_key() const override { return keyed_current_ && current_root_.has_value(); }
  std::optional<crypto::Bignum> member_secret() const override;
  std::optional<crypto::Bignum> member_commitment() const override;

  /// Tree depth (introspection for tests; 0 when no shape).
  std::size_t tree_depth() const;

 private:
  static crypto::KeyTree::LeafId lid(const gcs::MemberId& m) {
    return (static_cast<std::uint64_t>(m.daemon) << 32) | m.client;
  }
  static gcs::MemberId mid_of(crypto::KeyTree::LeafId id) {
    return gcs::MemberId{static_cast<std::uint32_t>(id >> 32),
                         static_cast<std::uint32_t>(id & 0xffffffffu)};
  }

  /// A kTgdhUpdate: adopt/verify the shape, merge blinded keys
  /// (round-aware), then climb.
  KaActions merge_update(const TgdhUpdateMsg& update);
  /// Climbs from our leaf; on new sponsored nodes (or `must_send`) appends
  /// a snapshot broadcast; flags key_ready when a new root secret appears.
  void climb_and_broadcast(KaActions& out, bool must_send_full);
  util::Bytes encode_update(bool full) const;
  /// Rightmost leaf not in `joined` (tree order) — the batch sponsor.
  std::optional<gcs::MemberId> batch_sponsor(
      const std::vector<gcs::MemberId>& joined) const;
  bool i_am_root_sponsor() const;

  KaModuleEnv env_;
  crypto::KeyTree tree_;
  /// True when tree_ reflects the current agreed membership (joiners run
  /// without shape until the first snapshot arrives).
  bool have_shape_ = false;
  std::optional<crypto::Bignum> my_secret_;
  /// Root secret backing the announced key (survives tree recomputation in
  /// progress, so session_key() stays readable during a refresh).
  std::optional<crypto::Bignum> current_root_;
  /// In-view refresh round: bumped by the sponsor on key refresh; snapshots
  /// from older rounds are dropped, newer ones replace cached path keys.
  std::uint32_t refresh_round_ = 0;
  /// Leaf keys that arrived before we learned the tree shape.
  std::map<gcs::MemberId, crypto::Bignum> pending_leaf_bks_;
  gcs::GroupView view_;
  bool have_view_ = false;
  bool keyed_current_ = false;
  bool saw_membership_ = false;
};

}  // namespace ss::secure
