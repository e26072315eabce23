// CKD key-agreement module: the centralized baseline behind the paper's
// comparison (Appendix / Table 5). The oldest group member is the
// controller; it keeps authenticated pairwise blinding keys with every
// member and redistributes a fresh group secret on every membership event.
#pragma once

#include "ckd/ckd.h"
#include "secure/ka_module.h"

namespace ss::secure {

class CkdKaModule final : public KeyAgreementModule {
 public:
  explicit CkdKaModule(const KaModuleEnv& env);

  std::string name() const override { return "ckd"; }
  KaActions on_membership(const KaMembershipEvent& event) override;
  KaActions on_message(const gcs::Message& msg) override;
  KaActions request_refresh() override;
  util::Bytes session_key(std::size_t len) const override;
  bool has_key() const override { return ctx_ && ctx_->has_key() && keyed_current_; }

 private:
  void reset_context();
  bool i_am_controller() const {
    return have_view_ && !view_.members.empty() && view_.members.front() == env_.self;
  }
  /// Controller: distributes a fresh group secret once every member has a
  /// pairwise key (no actions before that).
  KaActions distribute();

  KaModuleEnv env_;
  std::unique_ptr<ckd::CkdContext> ctx_;
  gcs::GroupView view_;
  bool have_view_ = false;
  bool keyed_current_ = false;
  gcs::MemberId last_controller_;
};

}  // namespace ss::secure
