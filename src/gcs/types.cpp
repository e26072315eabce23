#include "gcs/types.h"

#include <algorithm>
#include <sstream>

namespace ss::gcs {

std::string MemberId::to_string() const {
  std::ostringstream os;
  os << "#c" << client << "#d" << daemon;
  return os.str();
}

std::string ViewId::to_string() const {
  std::ostringstream os;
  os << "v" << round << "." << coordinator;
  return os.str();
}

std::string GroupViewId::to_string() const {
  std::ostringstream os;
  os << daemon_view.to_string() << "/" << change_seq;
  return os.str();
}

std::string to_string(MembershipReason reason) {
  switch (reason) {
    case MembershipReason::kJoin: return "join";
    case MembershipReason::kLeave: return "leave";
    case MembershipReason::kDisconnect: return "disconnect";
    case MembershipReason::kNetwork: return "network";
    case MembershipReason::kSelfLeave: return "self-leave";
  }
  return "?";
}

std::string to_string(ServiceType service) {
  switch (service) {
    case ServiceType::kUnreliable: return "unreliable";
    case ServiceType::kReliable: return "reliable";
    case ServiceType::kFifo: return "fifo";
    case ServiceType::kCausal: return "causal";
    case ServiceType::kAgreed: return "agreed";
    case ServiceType::kSafe: return "safe";
  }
  return "?";
}

bool GroupView::contains(const MemberId& m) const {
  return std::find(members.begin(), members.end(), m) != members.end();
}

}  // namespace ss::gcs
