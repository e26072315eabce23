// Core identifiers and membership-event vocabulary of the group
// communication system (Spread-equivalent substrate).
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/transport.h"
#include "util/serial.h"

namespace ss::gcs {

/// A daemon's identity doubles as its transport address, exactly like the
/// paper's spread.conf segments mapping daemons to LAN addresses.
using DaemonId = runtime::NodeId;
inline constexpr DaemonId kInvalidDaemon = runtime::kInvalidNode;
using GroupName = std::string;

/// A connected client process: (daemon it connects through, local index).
/// Equivalent to Spread's private group name "#user#daemon".
struct MemberId {
  DaemonId daemon = kInvalidDaemon;
  std::uint32_t client = 0;

  friend auto operator<=>(const MemberId&, const MemberId&) = default;

  std::string to_string() const;
  template <class S>
  void fields(S& s) {
    s(daemon, client);
  }
};

/// Identifier of an installed daemon-level configuration (EVS view).
/// `round` increases monotonically across the whole system; `coordinator`
/// breaks ties between concurrent components.
struct ViewId {
  std::uint64_t round = 0;
  DaemonId coordinator = kInvalidDaemon;

  friend auto operator<=>(const ViewId&, const ViewId&) = default;

  std::string to_string() const;
  template <class S>
  void fields(S& s) {
    s(round, coordinator);
  }
};

/// Identifier of a lightweight group view. Orders lexicographically:
/// daemon views are totally ordered for members that survive together, and
/// within one daemon view group changes are ordered by their agreed stamp.
struct GroupViewId {
  ViewId daemon_view;
  std::uint64_t change_seq = 0;

  friend auto operator<=>(const GroupViewId&, const GroupViewId&) = default;

  std::string to_string() const;
  template <class S>
  void fields(S& s) {
    s(daemon_view, change_seq);
  }
};

/// Spread-style delivery services.
enum class ServiceType : std::uint8_t {
  kUnreliable = 0,  // best effort (still loss-free on our reliable links)
  kReliable = 1,    // reliable, per-sender order
  kFifo = 2,        // reliable, per-sender order
  kCausal = 3,      // vector-clock causal order
  kAgreed = 4,      // total order (sequencer)
  kSafe = 5,        // total order + stability (all members hold the message)
};
constexpr bool wire_valid(ServiceType s) { return s <= ServiceType::kSafe; }

/// Why a membership view changed — the left column of the paper's Table 1.
enum class MembershipReason : std::uint8_t {
  kJoin = 0,        // a member joined voluntarily
  kLeave = 1,       // a member left voluntarily
  kDisconnect = 2,  // a member's client connection vanished (crash)
  kNetwork = 3,     // daemon-level membership change (partition and/or merge)
  kSelfLeave = 4,   // final view delivered to a voluntarily leaving member
};
constexpr bool wire_valid(MembershipReason r) { return r <= MembershipReason::kSelfLeave; }

std::string to_string(MembershipReason reason);
std::string to_string(ServiceType service);

/// A group membership view as delivered to clients.
struct GroupView {
  GroupName group;
  GroupViewId view_id;
  /// Current members, oldest first (join order). Cliques picks the newest
  /// (back) as controller; CKD picks the oldest (front).
  std::vector<MemberId> members;
  MembershipReason reason = MembershipReason::kNetwork;
  /// Delta relative to the receiving member's previous view of this group.
  std::vector<MemberId> joined;
  std::vector<MemberId> left;
  /// Members that came with the receiver through the change (the
  /// transitional set: receiver's previous view ∩ new view).
  std::vector<MemberId> transitional;

  bool contains(const MemberId& m) const;
  /// Wire layout of a view sent to a remote client (netd kView).
  template <class S>
  void fields(S& s) {
    s(group, view_id, reason, members, joined, left, transitional);
  }
};

/// A data message as delivered to clients. Copying a Message shares the
/// payload block (refcounted); fan-out to N local clients costs no copies.
struct Message {
  GroupName group;        // empty for member-to-member unicast
  MemberId sender;
  ServiceType service = ServiceType::kFifo;
  std::int16_t msg_type = 0;  // application-defined multiplexing tag
  util::SharedBytes payload;
  GroupViewId view_id;    // group view the message was delivered in

  /// Wire layout of a delivery to a remote client (netd kMessage).
  template <class S>
  void fields(S& s) {
    s(group, sender, service, msg_type, view_id, payload);
  }
};

}  // namespace ss::gcs
