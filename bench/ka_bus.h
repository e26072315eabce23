// A serial in-memory host for key-agreement modules: no GCS, no flush, no
// network. Each module call runs inline on the calling thread between
// exponentiation-tally snapshots booked against the member it ran for, and
// the call's actions go onto one FIFO queue that pump() drains to
// quiescence. Multicasts reach every member of the current view, the sender
// included (as VS self-delivery does); unicasts reach their target. Views
// are handed over as singleton batches: joined/left are the view's own.
//
// Shared by the module unit tests (tests/ka_module_test.cpp) and the rekey
// ablation (bench_ablation_rekey), which reads the per-member tallies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cliques/key_directory.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/exp_counter.h"
#include "secure/ka_module.h"

namespace ss::bench {

class KaBus {
 public:
  /// Runs `module` for every member. `label` names the group and
  /// personalizes the members' DRBGs; member i's long-term keys come from a
  /// DRBG seeded with `boot_seed + i`.
  KaBus(std::string module, const crypto::DhGroup& dh, std::string label,
        std::uint64_t boot_seed)
      : dh_(dh), dir_(dh), module_(std::move(module)), label_(std::move(label)),
        boot_seed_(boot_seed) {}

  static gcs::MemberId member(std::uint32_t i) { return gcs::MemberId{i, 1}; }

  void add_member(std::uint32_t i) {
    crypto::HmacDrbg boot(boot_seed_ + i, label_);
    dir_.ensure(member(i), boot);
    secure::KaModuleEnv env;
    env.dh = &dh_;
    env.directory = &dir_;
    env.rnd = std::make_shared<crypto::HmacDrbg>(i, label_ + "-member");
    env.self = member(i);
    modules_[member(i)] = secure::KaRegistry::instance().create(module_, env);
  }

  void remove_member(std::uint32_t i) { modules_.erase(member(i)); }

  secure::KeyAgreementModule& module(std::uint32_t i) { return *modules_.at(member(i)); }

  gcs::GroupView make_view(const std::vector<std::uint32_t>& members,
                           gcs::MembershipReason reason, const std::vector<std::uint32_t>& joined,
                           const std::vector<std::uint32_t>& left) {
    gcs::GroupView v;
    v.group = label_;
    v.view_id = gcs::GroupViewId{gcs::ViewId{++round_, 0}, 0};
    for (auto m : members) v.members.push_back(member(m));
    v.reason = reason;
    for (auto m : joined) v.joined.push_back(member(m));
    for (auto m : left) v.left.push_back(member(m));
    for (auto m : members) {
      if (std::find(joined.begin(), joined.end(), m) == joined.end()) {
        v.transitional.push_back(member(m));
      }
    }
    return v;
  }

  /// Hands `v` to every module and pumps the resulting traffic to
  /// quiescence. Returns how many calls reported key_ready.
  int deliver_view(const gcs::GroupView& v) {
    current_view_ = v;
    int ready = 0;
    for (auto& [id, module] : modules_) {
      const secure::KaMembershipEvent ev{v, v.joined, v.left, 1};
      ready += call(id, [&](secure::KeyAgreementModule& ka) { return ka.on_membership(ev); });
    }
    return ready + pump();
  }

  /// Asks every member for a key refresh, then pumps. Returns how many
  /// calls reported key_ready.
  int request_refresh_all() {
    int ready = 0;
    for (auto& [id, module] : modules_) {
      ready += call(id, [](secure::KeyAgreementModule& ka) { return ka.request_refresh(); });
    }
    return ready + pump();
  }

  /// Delivers queued protocol messages until none are left. Returns how
  /// many calls reported key_ready.
  int pump() {
    int ready = 0;
    while (!queue_.empty()) {
      auto [to, msg] = std::move(queue_.front());
      queue_.pop_front();
      ++messages_processed;
      if (modules_.count(to) == 0) continue;
      ready += call(to, [&](secure::KeyAgreementModule& ka) { return ka.on_message(msg); });
    }
    return ready;
  }

  /// Empty when every member of the current view holds one and the same
  /// key; otherwise why not.
  std::string agreement_failure() const {
    if (current_view_.members.empty()) return "no view delivered";
    util::Bytes ref;
    for (const auto& m : current_view_.members) {
      auto it = modules_.find(m);
      if (it == modules_.end() || !it->second->has_key()) {
        return "member " + m.to_string() + " not keyed";
      }
      const util::Bytes k = it->second->session_key(16);
      if (ref.empty()) {
        ref = k;
      } else if (k != ref) {
        return "member " + m.to_string() + " disagrees on the key";
      }
    }
    return "";
  }

  /// Exponentiations booked per member since the last reset_tallies().
  const std::map<gcs::MemberId, std::uint64_t>& tallies() const { return tallies_; }
  void reset_tallies() { tallies_.clear(); }

  std::uint64_t messages_processed = 0;

 private:
  /// Runs one call of member `id`'s module, books its exponentiations
  /// against `id` and queues its traffic. Returns 1 if it reported
  /// key_ready.
  int call(const gcs::MemberId& id,
           const std::function<secure::KaActions(secure::KeyAgreementModule&)>& fn) {
    const crypto::ExpTally before = crypto::exp_tally();
    const secure::KaActions actions = fn(*modules_.at(id));
    tallies_[id] += (crypto::exp_tally() - before).total();
    for (const auto& u : actions.unicasts) queue_.emplace_back(u.to, message(id, u));
    for (const auto& mc : actions.multicasts) {
      for (const auto& [to, module] : modules_) {
        if (!current_view_.contains(to)) continue;
        queue_.emplace_back(to, message(id, mc));
      }
    }
    return actions.key_ready ? 1 : 0;
  }

  template <class Send>
  gcs::Message message(const gcs::MemberId& from, const Send& send) const {
    gcs::Message m;
    m.group = label_;
    m.sender = from;
    m.msg_type = send.msg_type;
    m.payload = send.payload;
    m.view_id = current_view_.view_id;
    return m;
  }

  const crypto::DhGroup& dh_;
  cliques::KeyDirectory dir_;
  std::string module_;
  std::string label_;
  std::uint64_t boot_seed_;
  std::map<gcs::MemberId, std::unique_ptr<secure::KeyAgreementModule>> modules_;
  std::deque<std::pair<gcs::MemberId, gcs::Message>> queue_;
  gcs::GroupView current_view_;
  std::map<gcs::MemberId, std::uint64_t> tallies_;
  std::uint64_t round_ = 0;
};

}  // namespace ss::bench
