#include "cliques/clq.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/exp_counter.h"
#include "crypto/hmac.h"

namespace ss::cliques {

using crypto::Bignum;
using crypto::ExpPurpose;
using crypto::ExpPurposeScope;

// --- context ------------------------------------------------------------------

ClqContext::ClqContext(const crypto::DhGroup& dh, KeyDirectory& directory, const MemberId& self,
                       crypto::RandomSource& rnd)
    : dh_(dh), dir_(directory), self_(self), rnd_(rnd) {
  lt_priv_ = directory.ensure(self, rnd).priv;
  share_ = dh_.random_share(rnd_);
  members_ = {self_};
  {
    ExpPurposeScope scope(ExpPurpose::kSessionKey);
    key_ = dh_.exp_g(share_);
  }
  // Singleton partial: v_self = g (the empty product of other shares).
  pending_.clear();
  pending_[self_] = ClqEntry{self_, {}, dh_.g()};
  correction_others_ = Bignum(1);
  correction_self_ = Bignum(1);
}

Bignum ClqContext::lt_key(const MemberId& peer) {
  auto it = lt_cache_.find(peer);
  if (it != lt_cache_.end()) return it->second;
  const Bignum elem = dh_.exp(dir_.public_key(peer), lt_priv_);
  Bignum k = to_exponent(elem);
  lt_cache_.emplace(peer, k);
  return k;
}

Bignum ClqContext::chain_unblind(const std::vector<MemberId>& chain) {
  Bignum unblind(1);
  for (const auto& b : chain) {
    Bignum kb;
    {
      ExpPurposeScope scope(ExpPurpose::kLongTermKey);
      kb = lt_key(b);
    }
    unblind = dh_.mul_mod_q(unblind, dh_.inverse_share(kb));
  }
  return unblind;
}

Bignum ClqContext::to_exponent(const Bignum& element) const {
  Bignum e = element % dh_.q();
  if (e.is_zero()) e = Bignum(1);
  return e;
}

util::Bytes ClqContext::session_key(std::size_t len) const {
  if (!has_key()) throw std::logic_error("ClqContext: no group key established");
  return crypto::kdf_sha1(key_.to_bytes(), "clq/session", len);
}

ClqHandoffMsg ClqContext::join_handoff(const MemberId& joiner) {
  // Handing off requires the full current partial set — the property that
  // defines the controller. (The GCS layer designates the newest keyed
  // member; this guard catches stale state after cascaded events.)
  for (const auto& m : members_) {
    if (!pending_.contains(m)) {
      throw std::logic_error("ClqContext: stale partial set; cannot hand off");
    }
  }
  const Bignum f = dh_.random_share(rnd_);

  Bignum kt;
  {
    ExpPurposeScope scope(ExpPurpose::kLongTermKey);
    kt = lt_key(joiner);
  }
  const Bignum fkt = dh_.mul_mod_q(f, kt);

  ClqHandoffMsg msg;
  msg.old_controller = self_;
  msg.new_member = joiner;
  {
    // "Update key share with every member": refresh every old member's
    // partial with the new share factor (transport-blinded with Kt). The
    // controller's own partial excludes its share, so it does NOT get f —
    // the updated share N_c * f absorbs the factor instead.
    ExpPurposeScope scope(ExpPurpose::kUpdateKeyShare);
    for (const auto& [m, entry] : pending_) {
      ClqEntry out;
      out.member = m;
      if (m == self_) {
        out.chain = {};
        out.value = dh_.exp(entry.value, dh_.mul_mod_q(correction_self_, kt));
      } else {
        out.chain = entry.chain;
        out.value = dh_.exp(entry.value, dh_.mul_mod_q(correction_others_, fkt));
      }
      msg.partials.push_back(std::move(out));
    }
  }
  {
    // "New session key computation": the refreshed pre-join group secret,
    // which becomes the joiner's base.
    ExpPurposeScope scope(ExpPurpose::kSessionKey);
    msg.group_element = dh_.exp(key_, fkt);
  }

  share_ = dh_.mul_mod_q(share_, f);
  correction_others_ = dh_.mul_mod_q(correction_others_, f);
  // members_ is NOT extended here: the membership (and this member's new
  // key) become current when the joiner's broadcast is processed.
  return msg;
}

ClqBroadcastMsg ClqContext::join_finalize(const ClqHandoffMsg& handoff,
                                          const std::vector<MemberId>& final_members) {
  if (handoff.new_member != self_) throw std::logic_error("ClqContext: handoff not for me");
  // Fresh share for this group epoch (key independence).
  share_ = dh_.random_share(rnd_);

  Bignum kt;
  {
    ExpPurposeScope scope(ExpPurpose::kLongTermKey);
    kt = lt_key(handoff.old_controller);
  }
  const Bignum kt_inv = dh_.inverse_share(kt);
  const Bignum unblind_share = dh_.mul_mod_q(kt_inv, share_);

  ClqBroadcastMsg out;
  out.controller = self_;
  pending_.clear();
  for (const auto& entry : handoff.partials) {
    if (!dh_.is_valid_element(entry.value)) {
      throw std::runtime_error("ClqContext: invalid handoff element");
    }
    Bignum km;
    {
      ExpPurposeScope scope(ExpPurpose::kLongTermKey);
      km = lt_key(entry.member);
    }
    ClqEntry wire;
    wire.member = entry.member;
    wire.chain = entry.chain;
    wire.chain.push_back(self_);
    {
      ExpPurposeScope scope(ExpPurpose::kEncryptSessionKey);
      wire.value = dh_.exp(entry.value, dh_.mul_mod_q(unblind_share, km));
    }
    out.entries.push_back(std::move(wire));
    // Store the raw handoff value; corrections fold transport unblinding
    // and our share into the next operation lazily.
    pending_[entry.member] = entry;
  }
  {
    ExpPurposeScope scope(ExpPurpose::kSessionKey);
    key_ = dh_.exp(handoff.group_element, unblind_share);
  }

  pending_[self_] = ClqEntry{self_, {}, handoff.group_element};
  correction_others_ = unblind_share;
  correction_self_ = kt_inv;
  members_ = final_members;
  return out;
}

void ClqContext::forget(const MemberId& member) {
  if (member == self_) return;
  pending_.erase(member);
  members_.erase(std::remove(members_.begin(), members_.end(), member), members_.end());
}

ClqBroadcastMsg ClqContext::leave(const std::vector<MemberId>& leavers) {
  for (const auto& l : leavers) {
    if (l == self_) throw std::logic_error("ClqContext: cannot remove self via leave");
    pending_.erase(l);
  }
  std::vector<MemberId> remaining;
  for (const auto& m : members_) {
    if (std::find(leavers.begin(), leavers.end(), m) == leavers.end()) remaining.push_back(m);
  }
  members_ = std::move(remaining);

  // Producing the broadcast requires a partial for every remaining member:
  // only the holder of the latest full set (the current controller) has
  // them. A stale member must run the merge recovery path instead.
  for (const auto& m : members_) {
    if (m != self_ && !pending_.contains(m)) {
      throw std::logic_error("ClqContext: stale partial set; not the current controller");
    }
  }

  const Bignum f = dh_.random_share(rnd_);

  ClqBroadcastMsg out;
  out.controller = self_;
  for (const auto& [m, entry] : pending_) {
    if (m == self_) continue;
    Bignum km;
    {
      ExpPurposeScope scope(ExpPurpose::kLongTermKey);
      km = lt_key(m);
    }
    ClqEntry wire;
    wire.member = m;
    wire.chain = entry.chain;
    wire.chain.push_back(self_);
    {
      ExpPurposeScope scope(ExpPurpose::kEncryptSessionKey);
      wire.value =
          dh_.exp(entry.value, dh_.mul_mod_q(correction_others_, dh_.mul_mod_q(f, km)));
    }
    out.entries.push_back(std::move(wire));
  }

  // Own new key: unblind the stored base ("remove long term key with the
  // previous controller"), then raise it to the updated share.
  Bignum base;
  {
    ExpPurposeScope scope(ExpPurpose::kLongTermKey);
    base = dh_.exp(pending_[self_].value, correction_self_);
  }
  share_ = dh_.mul_mod_q(share_, f);
  {
    ExpPurposeScope scope(ExpPurpose::kSessionKey);
    key_ = dh_.exp(base, share_);
  }

  pending_[self_] = ClqEntry{self_, {}, base};
  correction_self_ = Bignum(1);
  correction_others_ = dh_.mul_mod_q(correction_others_, f);
  return out;
}

ClqMergeChainMsg ClqContext::merge_begin(const std::vector<MemberId>& new_members) {
  // Any keyed member may initiate a merge (only key_ is consumed); the GCS
  // layer designates the newest keyed member of the side holding the oldest
  // group member.
  if (new_members.empty()) throw std::invalid_argument("ClqContext: empty merge");
  const Bignum f = dh_.random_share(rnd_);

  Bignum kt;
  {
    ExpPurposeScope scope(ExpPurpose::kLongTermKey);
    kt = lt_key(new_members.front());
  }
  ClqMergeChainMsg msg;
  msg.from = self_;
  msg.pending = new_members;
  {
    ExpPurposeScope scope(ExpPurpose::kUpdateKeyShare);
    msg.value = dh_.exp(key_, dh_.mul_mod_q(f, kt));
  }
  share_ = dh_.mul_mod_q(share_, f);
  correction_others_ = dh_.mul_mod_q(correction_others_, f);
  return msg;
}

std::pair<std::optional<ClqMergeChainMsg>, std::optional<ClqMergePartialMsg>>
ClqContext::merge_chain(const ClqMergeChainMsg& msg, const std::vector<MemberId>& final_members) {
  if (msg.pending.empty() || msg.pending.front() != self_) {
    throw std::logic_error("ClqContext: merge chain not for me");
  }
  if (!dh_.is_valid_element(msg.value)) {
    throw std::runtime_error("ClqContext: invalid merge chain element");
  }
  share_ = dh_.random_share(rnd_);

  Bignum k_prev;
  {
    ExpPurposeScope scope(ExpPurpose::kLongTermKey);
    k_prev = lt_key(msg.from);
  }
  const Bignum k_prev_inv = dh_.inverse_share(k_prev);

  if (msg.pending.size() == 1) {
    // I am the last new member: step 3 — unblind and broadcast the partial
    // WITHOUT adding my share yet.
    ClqMergePartialMsg partial;
    partial.new_controller = self_;
    {
      ExpPurposeScope scope(ExpPurpose::kSessionKey);
      partial.value = dh_.exp(msg.value, k_prev_inv);
    }
    merge_partial_ = partial.value;
    merge_responses_.clear();
    merge_final_members_ = final_members;
    members_ = final_members;
    return {std::nullopt, partial};
  }

  // Intermediate new member: add own share, re-blind for the next hop.
  const MemberId next = msg.pending[1];
  Bignum k_next;
  {
    ExpPurposeScope scope(ExpPurpose::kLongTermKey);
    k_next = lt_key(next);
  }
  ClqMergeChainMsg out;
  out.from = self_;
  out.pending.assign(msg.pending.begin() + 1, msg.pending.end());
  {
    ExpPurposeScope scope(ExpPurpose::kEncryptSessionKey);
    out.value = dh_.exp(msg.value, dh_.mul_mod_q(k_prev_inv, dh_.mul_mod_q(share_, k_next)));
  }
  members_ = final_members;
  return {out, std::nullopt};
}

ClqFactorOutMsg ClqContext::merge_factor_out(const ClqMergePartialMsg& partial,
                                             const std::vector<MemberId>& final_members) {
  if (partial.new_controller == self_) {
    throw std::logic_error("ClqContext: the new controller does not factor out");
  }
  if (!dh_.is_valid_element(partial.value)) {
    throw std::runtime_error("ClqContext: invalid merge partial");
  }
  Bignum k_ctrl;
  {
    ExpPurposeScope scope(ExpPurpose::kLongTermKey);
    k_ctrl = lt_key(partial.new_controller);
  }
  ClqFactorOutMsg out;
  out.member = self_;
  {
    ExpPurposeScope scope(ExpPurpose::kEncryptSessionKey);
    out.value = dh_.exp(partial.value, dh_.mul_mod_q(dh_.inverse_share(share_), k_ctrl));
  }
  members_ = final_members;
  return out;
}

ClqMergePartialMsg ClqContext::recovery_begin(const std::vector<MemberId>& final_members) {
  // Fresh share factor so departed members cannot compute the new key even
  // though the broadcast base is an already-public partial.
  const Bignum f = dh_.random_share(rnd_);
  share_ = dh_.mul_mod_q(share_, f);

  Bignum base;
  {
    ExpPurposeScope scope(ExpPurpose::kSessionKey);
    base = dh_.exp(pending_[self_].value, correction_self_);
  }
  pending_[self_] = ClqEntry{self_, {}, base};
  correction_self_ = Bignum(1);

  ClqMergePartialMsg out;
  out.new_controller = self_;
  out.value = base;
  merge_partial_ = base;
  merge_responses_.clear();
  merge_final_members_ = final_members;
  members_ = final_members;
  return out;
}

std::optional<ClqBroadcastMsg> ClqContext::merge_collect(const ClqFactorOutMsg& factor_out) {
  if (!dh_.is_valid_element(factor_out.value)) {
    throw std::runtime_error("ClqContext: invalid factor-out element");
  }
  merge_responses_[factor_out.member] = factor_out.value;
  for (const auto& m : merge_final_members_) {
    if (m != self_ && !merge_responses_.contains(m)) return std::nullopt;
  }

  // Step 5: add my share to every response. Responses arrive blinded with
  // K_{member,me} (== K_{me,member}), so raising them to N_me leaves exactly
  // the right blinding in place for the receivers.
  ClqBroadcastMsg out;
  out.controller = self_;
  pending_.clear();
  for (const auto& [m, value] : merge_responses_) {
    ClqEntry wire;
    wire.member = m;
    wire.chain = {self_};
    {
      ExpPurposeScope scope(ExpPurpose::kEncryptSessionKey);
      wire.value = dh_.exp(value, share_);
    }
    out.entries.push_back(wire);
    pending_[m] = ClqEntry{m, {self_}, value};
  }
  {
    ExpPurposeScope scope(ExpPurpose::kSessionKey);
    key_ = dh_.exp(merge_partial_, share_);
  }
  pending_[self_] = ClqEntry{self_, {}, merge_partial_};
  correction_self_ = Bignum(1);
  correction_others_ = share_;
  members_ = merge_final_members_;
  merge_responses_.clear();
  return out;
}

void ClqContext::process_broadcast(const ClqBroadcastMsg& broadcast,
                                   const std::vector<MemberId>& new_members) {
  if (broadcast.controller == self_) return;  // own echo

  const auto my_entry = std::find_if(broadcast.entries.begin(), broadcast.entries.end(),
                                     [&](const auto& e) { return e.member == self_; });
  if (my_entry == broadcast.entries.end()) {
    throw std::runtime_error("ClqContext: broadcast without my entry");
  }
  if (!dh_.is_valid_element(my_entry->value)) {
    throw std::runtime_error("ClqContext: invalid broadcast element");
  }

  // Fold the unblinding of my entry's whole chain with my share into one
  // exponentiation.
  const Bignum unblind = chain_unblind(my_entry->chain);
  {
    ExpPurposeScope scope(ExpPurpose::kSessionKey);
    key_ = dh_.exp(my_entry->value, dh_.mul_mod_q(unblind, share_));
  }

  // Keep the full (blinded) set: if this member later becomes controller,
  // it reuses these partials with their inherited blinding chains.
  pending_.clear();
  for (const auto& entry : broadcast.entries) pending_[entry.member] = entry;
  pending_[self_] = ClqEntry{self_, {}, my_entry->value};
  correction_others_ = Bignum(1);
  correction_self_ = unblind;
  members_ = new_members;
}

}  // namespace ss::cliques
