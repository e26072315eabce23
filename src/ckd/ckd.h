// CKD: Centralized Key Distribution (paper Appendix, Table 5).
//
// The comparison baseline: the *oldest* member is the controller; it
// establishes an authenticated pairwise blinding key with each member via
// two-party Diffie-Hellman (blinded with long-term keys), then unilaterally
// generates the group secret Ks and distributes it as Ks^{alpha^{r1 ri}}.
//
//   Round 1:  M1 -> Mi : alpha^{r1}
//   Round 2:  Mi -> M1 : alpha^{ri * K1i}
//   Round 3:  M1 -> Mi : Ks^{alpha^{r1 ri}}    for all members
//
// Serial exponentiation budget (paper Tables 2-3):
//   JOIN   controller: long-term key 1, pairwise key 1, session key 1,
//                      encryption of session key n-1          (= n+2)
//          new member: long-term 1, pairwise 1, encrypt-for-controller 1,
//                      decrypt session key 1                  (= 4)
//   LEAVE  controller: session key 1, encryption n-2          (= n-1)
//   LEAVE of the controller: successor pays long-term n-2, pairwise n-2,
//                      session 1, encryption n-2              (= 3n-5)
//
// Like Cliques, the context is transport-agnostic; the secure layer moves
// the typed messages over the GCS.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "cliques/key_directory.h"
#include "crypto/bignum.h"
#include "crypto/dh.h"
#include "crypto/exp_counter.h"
#include "gcs/types.h"
#include "util/bytes.h"
#include "util/serial.h"

namespace ss::ckd {

using cliques::KeyDirectory;
using gcs::MemberId;

/// Round 1: controller -> member. alpha^{r1}.
struct CkdRound1Msg {
  MemberId controller;
  crypto::Bignum value;

  template <class S>
  void fields(S& s) {
    s(controller, value);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

/// Round 2: member -> controller. alpha^{ri * K1i}.
struct CkdRound2Msg {
  MemberId member;
  crypto::Bignum value;

  template <class S>
  void fields(S& s) {
    s(member, value);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

/// Round 3: controller -> group. Per-member Ks^{alpha^{r1 ri}}.
struct CkdKeyDistMsg {
  MemberId controller;
  std::vector<std::pair<MemberId, crypto::Bignum>> encrypted_keys;

  template <class S>
  void fields(S& s) {
    s(controller, encrypted_keys);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

class CkdContext {
 public:
  CkdContext(const crypto::DhGroup& dh, KeyDirectory& directory, const MemberId& self,
             crypto::RandomSource& rnd);

  const MemberId& self() const { return self_; }
  const std::vector<MemberId>& members() const { return members_; }
  /// CKD controller = oldest member (front of the join-ordered list).
  const MemberId& controller() const { return members_.front(); }
  bool is_controller() const { return !members_.empty() && controller() == self_; }
  bool has_key() const { return !key_.is_zero(); }
  const crypto::Bignum& raw_key() const { return key_; }
  util::Bytes session_key(std::size_t len) const;

  // --- controller side ------------------------------------------------------
  /// Starts pairwise establishment with members lacking a blinding key
  /// (the joiner on a join; everyone when this member just became
  /// controller). Returns one Round-1 message per such member (empty if all
  /// pairwise keys exist).
  std::vector<std::pair<MemberId, CkdRound1Msg>> pairwise_begin(
      const std::vector<MemberId>& current_members);
  /// Consumes a Round-2 response; completes that member's pairwise key.
  void pairwise_complete(const CkdRound2Msg& msg);
  /// True once every member in `members` (except self) has a pairwise key.
  bool pairwise_ready(const std::vector<MemberId>& members) const;
  /// Generates a fresh group secret and the Round-3 distribution for
  /// `current_members` (which must all have pairwise keys).
  CkdKeyDistMsg distribute(const std::vector<MemberId>& current_members);

  // --- member side -----------------------------------------------------------
  /// Responds to Round 1.
  CkdRound2Msg pairwise_respond(const CkdRound1Msg& msg);
  /// Consumes Round 3: decrypts the group secret.
  void process_key_dist(const CkdKeyDistMsg& msg, const std::vector<MemberId>& new_members);

  /// Forgets the pairwise key with a departed controller/member.
  void forget_pairwise(const MemberId& member);
  /// Drops all controller-side pairwise state (used when the controller
  /// changes and this member is not the new controller).
  void reset_pairwise();

 private:
  crypto::Bignum lt_key(const MemberId& peer, crypto::ExpPurpose purpose);
  crypto::Bignum to_exponent(const crypto::Bignum& element) const;

  const crypto::DhGroup& dh_;
  KeyDirectory& dir_;
  MemberId self_;
  crypto::RandomSource& rnd_;
  crypto::Bignum lt_priv_;

  std::vector<MemberId> members_;
  crypto::Bignum key_;  // group secret element (controller generates)

  /// Controller side: r1 and per-member blinding keys alpha^{r1 ri} mod q.
  crypto::Bignum r1_;
  crypto::Bignum g_r1_;
  std::map<MemberId, crypto::Bignum> blind_;  // as exponents
  /// Member side: blinding key with the current controller.
  std::optional<crypto::Bignum> my_blind_;
  MemberId blind_controller_;

  std::map<MemberId, crypto::Bignum> lt_cache_;
};

}  // namespace ss::ckd
