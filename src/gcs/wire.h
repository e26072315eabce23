// Daemon-to-daemon protocol messages and their wire encodings.
//
// Everything except heartbeats travels over the reliable FIFO links
// (gcs/link.h). Each message lists its fields once; util::encode and
// util::decode run that list (util/serial.h). Decoding a corrupt buffer
// throws util::SerialError, which the daemon treats as a dropped packet.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "gcs/types.h"
#include "util/serial.h"

namespace ss::gcs {

enum class MsgType : std::uint8_t {
  kHeartbeat = 1,
  kGatherAnnounce = 2,
  kProposal = 3,
  kStateExchange = 4,
  kInstall = 5,
  kRetransReq = 6,
  kRetransData = 7,
  kData = 8,
  kOrderStamp = 9,
  kUnicast = 10,
  kDaemonKeyDist = 11,  // daemon-model group key distribution (gcs/daemon_key.h)
};
constexpr bool wire_valid(MsgType t) {
  return t >= MsgType::kHeartbeat && t <= MsgType::kDaemonKeyDist;
}

/// Periodic, unreliable. Carries the sender's installed view (foreign-view
/// detection => merge trigger), its contiguously-held agreed sequence number
/// (stability input for SAFE delivery) and its contiguous receipt per sender
/// in that view (the all-received line that trims the store).
struct HeartbeatMsg {
  ViewId view;
  std::uint64_t delivered_gseq = 0;
  std::vector<std::pair<DaemonId, std::uint64_t>> received;

  template <class S>
  void fields(S& s) {
    s(view, delivered_gseq, received);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

/// Membership, phase 1: "I am gathering for round R and can reach C".
struct GatherAnnounceMsg {
  std::uint64_t round = 0;
  std::vector<DaemonId> candidates;

  template <class S>
  void fields(S& s) {
    s(round, candidates);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

/// Membership, phase 2 (coordinator -> candidates).
struct ProposalMsg {
  ViewId view;
  std::vector<DaemonId> members;

  template <class S>
  void fields(S& s) {
    s(view, members);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

/// One member of a lightweight group, with the stamp that fixes its join
/// order (group views list members oldest-first; key agreement derives the
/// controller from that order).
struct GroupMemberEntry {
  MemberId member;
  GroupViewId join_stamp;

  friend auto operator<=>(const GroupMemberEntry&, const GroupMemberEntry&) = default;

  template <class S>
  void fields(S& s) {
    s(member, join_stamp);
  }
};

/// group name -> members ordered by join stamp.
struct GroupTable {
  std::map<GroupName, std::vector<GroupMemberEntry>> groups;

  template <class S>
  void fields(S& s) {
    s(groups);
  }
};

/// An ordered multicast within a daemon view (client data or group-change
/// control). `seq` is per-sender within the view.
struct DataMsg {
  ViewId view;
  DaemonId sender = kInvalidDaemon;
  std::uint64_t seq = 0;
  ServiceType service = ServiceType::kFifo;
  bool control = false;  // true: payload is a GroupChange, not client data
  GroupName group;
  MemberId origin;
  std::int16_t msg_type = 0;
  /// Causal timestamp: per-daemon send counts (only for kCausal service).
  std::vector<std::pair<DaemonId, std::uint64_t>> vclock;
  util::SharedBytes payload;

  template <class S>
  void fields(S& s) {
    s(view, sender, seq, service, control, group, origin, msg_type, vclock, payload);
  }
  util::Bytes encode() const { return util::encode(*this); }
  /// Framed encoding (type byte + headers + chained payload) as one shared
  /// block: the single gather of the multicast send path, refcount-shared
  /// across every destination.
  util::SharedBytes encode_framed() const;
};

/// Sequencer stamp assigning global order `gseq` to (sender, seq).
struct OrderStampMsg {
  ViewId view;
  std::uint64_t gseq = 0;
  DaemonId sender = kInvalidDaemon;
  std::uint64_t seq = 0;

  template <class S>
  void fields(S& s) {
    s(view, gseq, sender, seq);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

/// The group-change operations carried by control DataMsgs.
enum class GroupChangeKind : std::uint8_t { kJoin = 0, kLeave = 1, kDisconnect = 2 };
constexpr bool wire_valid(GroupChangeKind k) { return k <= GroupChangeKind::kDisconnect; }

struct GroupChangeMsg {
  GroupChangeKind kind = GroupChangeKind::kJoin;
  GroupName group;
  MemberId member;

  template <class S>
  void fields(S& s) {
    s(kind, group, member);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

/// Membership, phase 3: each proposed member reports its old-view state.
struct StateExchangeMsg {
  ViewId proposed;
  DaemonId from = kInvalidDaemon;
  ViewId old_view;
  std::vector<DaemonId> old_members;
  /// Highest (contiguous) per-sender sequence received in the old view.
  std::vector<std::pair<DaemonId, std::uint64_t>> fifo_received;
  /// Highest contiguously delivered agreed sequence.
  std::uint64_t delivered_gseq = 0;
  /// All order stamps known for the old view.
  std::vector<OrderStampMsg> stamps;
  GroupTable groups;

  template <class S>
  void fields(S& s) {
    s(proposed, from, old_view, old_members, fifo_received, delivered_gseq, stamps, groups);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

/// Per-old-view recovery plan inside an Install.
struct OldViewPlan {
  ViewId old_view;
  std::vector<DaemonId> participants;  // reporters of this old view, in new view
  std::vector<DaemonId> old_members;   // senders whose messages are recovered
  std::vector<std::pair<DaemonId, std::uint64_t>> fifo_cut;  // per-sender target
  /// Each participant's reported fifo_received (for holder lookup).
  std::vector<std::pair<DaemonId, std::vector<std::pair<DaemonId, std::uint64_t>>>> holder_vecs;
  /// Union of known stamps, sorted by gseq.
  std::vector<OrderStampMsg> stamps;

  template <class S>
  void fields(S& s) {
    s(old_view, participants, old_members, fifo_cut, holder_vecs, stamps);
  }
};

/// Membership, phase 4 (coordinator -> members): install this view after
/// completing your plan.
struct InstallMsg {
  ViewId view;
  std::vector<DaemonId> members;
  std::vector<OldViewPlan> plans;
  /// Union of all reported group tables (unfiltered; receivers drop members
  /// whose daemon is not in `members`, deterministically).
  GroupTable merged_groups;

  template <class S>
  void fields(S& s) {
    s(view, members, plans, merged_groups);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

struct RetransReqMsg {
  ViewId old_view;
  std::vector<std::pair<DaemonId, std::uint64_t>> items;  // (sender, seq)

  template <class S>
  void fields(S& s) {
    s(old_view, items);
  }
  util::Bytes encode() const { return util::encode(*this); }
};

struct RetransDataMsg {
  ViewId old_view;
  std::vector<DataMsg> msgs;

  template <class S>
  void fields(S& s) {
    s(old_view, util::delimited(msgs));
  }
  util::Bytes encode() const { return util::encode(*this); }
};

/// Member-to-member private message, routed daemon-to-daemon directly.
struct UnicastMsg {
  MemberId from;
  MemberId to;
  GroupName group;  // informational context (e.g. key agreement group)
  std::int16_t msg_type = 0;
  util::SharedBytes payload;

  template <class S>
  void fields(S& s) {
    s(from, to, group, msg_type, payload);
  }
  util::Bytes encode() const { return util::encode(*this); }
  /// See DataMsg::encode_framed.
  util::SharedBytes encode_framed() const;
};

/// Frames an inner message with its type tag.
util::Bytes frame(MsgType type, const util::Bytes& body);
/// Splits a framed message; the body aliases `data`'s block. Throws
/// util::SerialError if the type byte names no MsgType.
std::pair<MsgType, util::SharedBytes> unframe(const util::SharedBytes& data);

}  // namespace ss::gcs
