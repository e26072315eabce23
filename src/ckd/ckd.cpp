#include "ckd/ckd.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/exp_counter.h"
#include "crypto/hmac.h"

namespace ss::ckd {

using crypto::Bignum;
using crypto::ExpPurpose;
using crypto::ExpPurposeScope;

CkdContext::CkdContext(const crypto::DhGroup& dh, KeyDirectory& directory, const MemberId& self,
                       crypto::RandomSource& rnd)
    : dh_(dh), dir_(directory), self_(self), rnd_(rnd) {
  lt_priv_ = directory.ensure(self, rnd).priv;
  members_ = {self_};
  // Singleton group: the controller IS the group; generate an initial key.
  ExpPurposeScope scope(ExpPurpose::kSessionKey);
  key_ = dh_.exp_g(dh_.random_share(rnd_));
}

Bignum CkdContext::lt_key(const MemberId& peer, ExpPurpose purpose) {
  auto it = lt_cache_.find(peer);
  if (it != lt_cache_.end()) return it->second;
  ExpPurposeScope scope(purpose);
  const Bignum elem = dh_.exp(dir_.public_key(peer), lt_priv_);
  Bignum k = to_exponent(elem);
  lt_cache_.emplace(peer, k);
  return k;
}

Bignum CkdContext::to_exponent(const Bignum& element) const {
  Bignum e = element % dh_.q();
  if (e.is_zero()) e = Bignum(1);
  return e;
}

util::Bytes CkdContext::session_key(std::size_t len) const {
  if (!has_key()) throw std::logic_error("CkdContext: no group key established");
  return crypto::kdf_sha1(key_.to_bytes(), "ckd/session", len);
}

std::vector<std::pair<MemberId, CkdRound1Msg>> CkdContext::pairwise_begin(
    const std::vector<MemberId>& current_members) {
  members_ = current_members;
  if (!is_controller()) throw std::logic_error("CkdContext: only the controller begins pairwise");
  if (r1_.is_zero()) {
    // "This selection is performed only once" (Table 5, Round 1): r1 lives
    // for the duration of this member's controllership.
    r1_ = dh_.random_share(rnd_);
    ExpPurposeScope scope(ExpPurpose::kPairwiseKey);
    g_r1_ = dh_.exp_g(r1_);
  }
  std::vector<std::pair<MemberId, CkdRound1Msg>> out;
  for (const auto& m : current_members) {
    if (m == self_ || blind_.contains(m)) continue;
    CkdRound1Msg msg;
    msg.controller = self_;
    msg.value = g_r1_;
    out.emplace_back(m, msg);
  }
  return out;
}

CkdRound2Msg CkdContext::pairwise_respond(const CkdRound1Msg& msg) {
  if (!dh_.is_valid_element(msg.value)) {
    throw std::runtime_error("CkdContext: invalid round-1 element");
  }
  const Bignum ri = dh_.random_share(rnd_);
  {
    // Pairwise key alpha^{r1 ri}, kept as the decryption exponent.
    ExpPurposeScope scope(ExpPurpose::kPairwiseKey);
    my_blind_ = to_exponent(dh_.exp(msg.value, ri));
  }
  blind_controller_ = msg.controller;
  const Bignum k = lt_key(msg.controller, ExpPurpose::kLongTermKey);
  CkdRound2Msg out;
  out.member = self_;
  {
    // alpha^{ri * K1i}: "encryption of the pairwise secret for controller".
    ExpPurposeScope scope(ExpPurpose::kEncryptSessionKey);
    out.value = dh_.exp_g(dh_.mul_mod_q(ri, k));
  }
  return out;
}

void CkdContext::pairwise_complete(const CkdRound2Msg& msg) {
  if (!dh_.is_valid_element(msg.value)) {
    throw std::runtime_error("CkdContext: invalid round-2 element");
  }
  const Bignum k = lt_key(msg.member, ExpPurpose::kLongTermKey);
  ExpPurposeScope scope(ExpPurpose::kPairwiseKey);
  const Bignum blind =
      dh_.exp(msg.value, dh_.mul_mod_q(r1_, dh_.inverse_share(k)));  // alpha^{r1 ri}
  blind_[msg.member] = to_exponent(blind);
}

bool CkdContext::pairwise_ready(const std::vector<MemberId>& members) const {
  for (const auto& m : members) {
    if (m != self_ && !blind_.contains(m)) return false;
  }
  return true;
}

CkdKeyDistMsg CkdContext::distribute(const std::vector<MemberId>& current_members) {
  members_ = current_members;
  if (!is_controller()) throw std::logic_error("CkdContext: only the controller distributes");
  if (!pairwise_ready(current_members)) {
    throw std::logic_error("CkdContext: pairwise keys incomplete");
  }
  {
    ExpPurposeScope scope(ExpPurpose::kSessionKey);
    key_ = dh_.exp_g(dh_.random_share(rnd_));  // fresh group secret Ks
  }
  CkdKeyDistMsg out;
  out.controller = self_;
  for (const auto& m : current_members) {
    if (m == self_) continue;
    ExpPurposeScope scope(ExpPurpose::kEncryptSessionKey);
    out.encrypted_keys.emplace_back(m, dh_.exp(key_, blind_.at(m)));
  }
  return out;
}

void CkdContext::process_key_dist(const CkdKeyDistMsg& msg,
                                  const std::vector<MemberId>& new_members) {
  if (msg.controller == self_) return;  // own echo
  if (!my_blind_ || blind_controller_ != msg.controller) {
    throw std::runtime_error("CkdContext: no pairwise key with distributing controller");
  }
  const auto it = std::find_if(msg.encrypted_keys.begin(), msg.encrypted_keys.end(),
                               [&](const auto& e) { return e.first == self_; });
  if (it == msg.encrypted_keys.end()) {
    throw std::runtime_error("CkdContext: key distribution without my entry");
  }
  if (!dh_.is_valid_element(it->second)) {
    throw std::runtime_error("CkdContext: invalid encrypted key");
  }
  {
    ExpPurposeScope scope(ExpPurpose::kDecryptSessionKey);
    key_ = dh_.exp(it->second, dh_.inverse_share(*my_blind_));
  }
  members_ = new_members;
}

void CkdContext::forget_pairwise(const MemberId& member) {
  blind_.erase(member);
  if (my_blind_ && blind_controller_ == member) my_blind_.reset();
}

void CkdContext::reset_pairwise() {
  blind_.clear();
  r1_ = Bignum();
  g_r1_ = Bignum();
}

}  // namespace ss::ckd
