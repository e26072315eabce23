// CLQ_API: Cliques authenticated contributory group key agreement.
//
// Implements the operations of paper Section 4 in the A-GDH.2 style of the
// Cliques protocol suite [11,12,13]: the group secret is g^{N_1 N_2 ... N_n}
// with one private share N_i per member, the controller is always the newest
// member, and protocol values are blinded with pairwise long-term keys
// K_ij = f(g^{x_i x_j}) for implicit member authentication.
//
// Operation shapes and their serial-exponentiation budgets, which the
// benchmark harness measures against the paper's Tables 2-4 (n counts the
// joiner on JOIN and the leaver on LEAVE, as in the paper):
//
//   JOIN   controller: update key share with every member  n-1
//                      long term key with new member        1
//                      new session key computation          1      (= n+1)
//          new member: long term keys                       n-1
//                      encryption of session key            n-1
//                      new session key                      1      (= 2n-1)
//
//   LEAVE  controller: remove long term key of previous controller 1
//                      new session key                      1
//                      encryption of session key            n-2    (= n)
//
//   MERGE  the chained upflow of Section 4.2 (controller -> new members in
//          turn -> partial broadcast -> factor-out responses -> final
//          broadcast).
//
//   REFRESH = LEAVE with no leavers; any member may trigger it.
//
// Every member retains the latest full broadcast set (each entry with its
// blinding chain), so whichever member the group communication system
// designates as the next controller — the newest member surviving a
// membership event — can run the next operation without extra rounds. This
// keeps LEAVE at n serial exponentiations even when the previous controller
// is the member that vanished (paper Table 4, "controller leaves").
//
// The context is transport-agnostic: operations consume and produce typed
// messages the caller moves over a group communication system providing
// member-to-member unicast, group multicast and FIFO order (Section 5.3).
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "cliques/key_directory.h"
#include "crypto/bignum.h"
#include "crypto/dh.h"
#include "gcs/types.h"
#include "util/bytes.h"
#include "util/serial.h"

namespace ss::cliques {

using gcs::MemberId;

/// One blinded partial: `value` = g^{(prod N)/N_member} blinded by
/// prod_{b in chain} K_{b,member}. The owning member unblinds by folding the
/// inverses of its pairwise keys with every chain member into one exponent.
struct ClqEntry {
  MemberId member;
  std::vector<MemberId> chain;
  crypto::Bignum value;

  template <class S>
  void fields(S& s) {
    s(member, chain, value);
  }
};

/// Join step 1: old controller -> joining member (unicast). All values are
/// additionally transport-blinded with Kt = K_{controller,joiner}.
struct ClqHandoffMsg {
  MemberId old_controller;
  MemberId new_member;
  /// Updated partials for every old member (including the controller).
  std::vector<ClqEntry> partials;
  /// (updated group secret)^{Kt}: the joiner's own base.
  crypto::Bignum group_element;

  template <class S>
  void fields(S& s) {
    s(old_controller, new_member, partials, group_element);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

/// Final broadcast of join/leave/refresh/merge.
struct ClqBroadcastMsg {
  /// The issuing controller (its shares define the new key epoch).
  MemberId controller;
  std::vector<ClqEntry> entries;

  template <class S>
  void fields(S& s) {
    s(controller, entries);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

/// Merge steps 1-2: value accumulating shares along the chain of new
/// members (unicast hop by hop; transport-blinded per hop).
struct ClqMergeChainMsg {
  MemberId from;
  /// New members still to traverse, in chain order (front = next hop).
  std::vector<MemberId> pending;
  crypto::Bignum value;

  template <class S>
  void fields(S& s) {
    s(from, pending, value);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

/// Merge step 3: the partial group secret broadcast by the last new member.
struct ClqMergePartialMsg {
  MemberId new_controller;
  crypto::Bignum value;  // unblinded accumulated partial

  template <class S>
  void fields(S& s) {
    s(new_controller, value);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

/// Merge step 4: member -> new controller (unicast), own share factored out,
/// blinded with K_{member,controller}.
struct ClqFactorOutMsg {
  MemberId member;
  crypto::Bignum value;

  template <class S>
  void fields(S& s) {
    s(member, value);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

/// One member's view of the group key agreement. One context per (member,
/// group).
class ClqContext {
 public:
  /// Creates the context for a singleton group: the founding member's key
  /// is g^{N_self}.
  ClqContext(const crypto::DhGroup& dh, KeyDirectory& directory, const MemberId& self,
             crypto::RandomSource& rnd);

  const MemberId& self() const { return self_; }
  /// Members in join order (back = controller).
  const std::vector<MemberId>& members() const { return members_; }
  const MemberId& controller() const { return members_.back(); }
  bool has_key() const { return !key_.is_zero(); }

  /// The raw group secret (a group element). Zero before the first key.
  const crypto::Bignum& raw_key() const { return key_; }
  /// This member's private share N_self of the current key.
  const crypto::Bignum& share() const { return share_; }
  /// Session key material derived from the group secret via the KDF.
  util::Bytes session_key(std::size_t len) const;

  // --- JOIN -------------------------------------------------------------
  /// Old controller side: update share, produce the handoff for `joiner`.
  ClqHandoffMsg join_handoff(const MemberId& joiner);
  /// Joiner side: consume the handoff, produce the broadcast, learn the key.
  /// `final_members` is the resulting membership in join order.
  ClqBroadcastMsg join_finalize(const ClqHandoffMsg& handoff,
                                const std::vector<MemberId>& final_members);

  // --- LEAVE / REFRESH ----------------------------------------------------
  /// Controller side: remove `leavers` (possibly empty = key refresh) and
  /// produce the broadcast. Throws std::logic_error if self is a leaver.
  ClqBroadcastMsg leave(const std::vector<MemberId>& leavers);

  // --- MERGE ----------------------------------------------------------------
  /// Old controller side: start the chain through `new_members` (in the
  /// order they will appear in the member list).
  ClqMergeChainMsg merge_begin(const std::vector<MemberId>& new_members);
  /// New member in the chain: add own share and pass along (first), or
  /// produce the step-3 partial broadcast (second) when self is last.
  std::pair<std::optional<ClqMergeChainMsg>, std::optional<ClqMergePartialMsg>> merge_chain(
      const ClqMergeChainMsg& msg, const std::vector<MemberId>& final_members);
  /// Everyone except the new controller: factor own share out (step 4).
  ClqFactorOutMsg merge_factor_out(const ClqMergePartialMsg& partial,
                                   const std::vector<MemberId>& final_members);
  /// New controller: collect factor-outs (step 5). Returns the final
  /// broadcast once all n-1 responses have arrived, nullopt before that.
  std::optional<ClqBroadcastMsg> merge_collect(const ClqFactorOutMsg& factor_out);

  /// Recovery rekey for cascaded events (Section 5.4): when the designated
  /// controller's stored partial set is stale (it was never the last
  /// broadcaster and survivors' entries are missing), it broadcasts its own
  /// partial as a merge step-3 message with `final_members` = the current
  /// view; everyone factors out and the normal merge collection completes
  /// the rekey. Costs ~2 exponentiations per member — the price of the
  /// fault, paid only on the fault path.
  ClqMergePartialMsg recovery_begin(const std::vector<MemberId>& final_members);

  // --- broadcast consumption --------------------------------------------------
  /// Every member: process the final broadcast of any operation, adopt the
  /// new member list, compute the new key. No-op for the issuer's own echo.
  void process_broadcast(const ClqBroadcastMsg& broadcast,
                         const std::vector<MemberId>& new_members);

  /// Refreshes the controller's share and returns the broadcast
  /// (= leave({})). Only the current controller holds the full partial set
  /// needed to issue it; other members request a refresh from the
  /// controller (the secure layer forwards such requests).
  ClqBroadcastMsg refresh() { return leave({}); }

  /// Drops a member's stale share with no key operation (no broadcast, no
  /// exponentiation). Used when the host learns a still-present member's
  /// state is void — it left and rejoined within one batched rekey round —
  /// so the follow-up join/merge re-admits it from scratch. No-op for
  /// unknown members and for self.
  void forget(const MemberId& member);

 private:
  /// Pairwise long-term key with `peer`, as an exponent mod q (cached).
  crypto::Bignum lt_key(const MemberId& peer);
  /// Folded inverse of the pairwise keys of every chain member (mod q).
  crypto::Bignum chain_unblind(const std::vector<MemberId>& chain);
  /// Reduce a group element to a usable nonzero exponent mod q.
  crypto::Bignum to_exponent(const crypto::Bignum& element) const;

  const crypto::DhGroup& dh_;
  KeyDirectory& dir_;
  MemberId self_;
  crypto::RandomSource& rnd_;
  crypto::Bignum lt_priv_;

  crypto::Bignum share_;  // N_self, in [1, q-1]
  std::vector<MemberId> members_;
  crypto::Bignum key_;  // group secret element

  /// Latest partial set. For m != self: true partial =
  /// (pending_[m].value ^ correction_others_) unblinded through its chain.
  /// For self: true partial = pending_[self].value ^ correction_self_
  /// (the self entry's stored chain is always empty).
  std::map<MemberId, ClqEntry> pending_;
  crypto::Bignum correction_others_;
  crypto::Bignum correction_self_;

  /// Merge-collection state (new controller only).
  std::map<MemberId, crypto::Bignum> merge_responses_;
  std::vector<MemberId> merge_final_members_;
  crypto::Bignum merge_partial_;

  std::map<MemberId, crypto::Bignum> lt_cache_;
};

}  // namespace ss::cliques
