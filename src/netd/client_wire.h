// Wire protocol between a spreadd client gate and remote clients.
//
// Spread's client library talks to its daemon over a stream socket; this
// is our equivalent. Framing: a big-endian u32 length prefix, then a body
// whose first byte is the Op, followed by the op's field list
// (util/serial.h). The protocol is
// deliberately thin — join/leave/multicast inbound; welcome, data
// messages, group views and the EVS transitional signal outbound. The
// secure layer is intentionally *not* proxied: keys never leave the
// client process in the paper's architecture, so remote clients run their
// own flush/secure stack client-side (future work), while this gate covers
// the plain GCS surface.
#pragma once

#include <cstdint>
#include <optional>

#include "gcs/types.h"
#include "util/serial.h"

namespace ss::netd::wire {

enum class Op : std::uint8_t {
  // client -> gate
  kJoin = 1,
  kLeave = 2,
  kMulticast = 3,
  kBye = 4,
  // gate -> client
  kWelcome = 16,
  kMessage = 17,
  kView = 18,
  kTransitional = 19,
};
constexpr bool wire_valid(Op op) {
  return (op >= Op::kJoin && op <= Op::kBye) || (op >= Op::kWelcome && op <= Op::kTransitional);
}

/// Hard cap on one frame's encoded size (length prefix excluded): a
/// corrupt prefix must not make a reader allocate gigabytes.
constexpr std::uint32_t kMaxFrame = 1u << 24;

/// Appends `body` to `out` with its length prefix.
inline void frame_into(util::Bytes& out, const util::Bytes& body) {
  const std::uint32_t n = static_cast<std::uint32_t>(body.size());
  out.push_back(static_cast<std::uint8_t>(n >> 24));
  out.push_back(static_cast<std::uint8_t>(n >> 16));
  out.push_back(static_cast<std::uint8_t>(n >> 8));
  out.push_back(static_cast<std::uint8_t>(n));
  out.insert(out.end(), body.begin(), body.end());
}

/// Extracts the next complete frame body from the front of `buf`, if one
/// is fully buffered. Throws util::SerialError on an oversized prefix.
inline std::optional<util::Bytes> next_frame(util::Bytes& buf) {
  if (buf.size() < 4) return std::nullopt;
  const std::uint32_t n = (static_cast<std::uint32_t>(buf[0]) << 24) |
                          (static_cast<std::uint32_t>(buf[1]) << 16) |
                          (static_cast<std::uint32_t>(buf[2]) << 8) |
                          static_cast<std::uint32_t>(buf[3]);
  if (n > kMaxFrame) throw util::SerialError("netd wire: oversized frame");
  if (buf.size() < 4u + n) return std::nullopt;
  util::Bytes body(buf.begin() + 4, buf.begin() + 4 + n);
  buf.erase(buf.begin(), buf.begin() + 4 + n);
  return body;
}

// --- op bodies ----------------------------------------------------------------
//
//   kJoin, kLeave, kTransitional   gcs::GroupName
//   kMulticast                     Multicast
//   kBye                           (nothing)
//   kWelcome                       gcs::MemberId (the client's id)
//   kMessage                       gcs::Message
//   kView                          gcs::GroupView

/// A client's multicast. Sent from the caller's buffer (Payload = const
/// Bytes&), received as SharedBytes.
template <class Payload>
struct Multicast {
  gcs::ServiceType service = gcs::ServiceType::kFifo;
  gcs::GroupName group;
  std::int16_t msg_type = 0;
  Payload payload;

  template <class S>
  void fields(S& s) {
    s(service, group, msg_type, payload);
  }
};

/// A frame body: the op byte, then the op's fields.
template <class Body>
struct Framed {
  Op op{};
  Body body;

  template <class S>
  void fields(S& s) {
    s(op, body);
  }
};

/// One framed message: length prefix, op byte, then `body`'s fields.
template <class... Body>
util::Bytes encode_op(Op op, const Body&... body) {
  util::Writer w;
  util::Encoder{w}(op, body...);  // a payload field is gathered once, in take()
  util::Bytes out;
  frame_into(out, w.take());
  return out;
}

/// The op of a frame body; throws util::SerialError if it names no Op.
inline Op peek_op(const util::Bytes& body) {
  util::Reader r(body);
  return util::decode_front<Op>(r);
}

/// Decodes a whole frame body as its op byte followed by a `Body`.
template <class Body>
Body decode_op(const util::Bytes& body) {
  return util::decode<Framed<Body>>(body).body;
}

inline util::Bytes encode_join(const gcs::GroupName& group) { return encode_op(Op::kJoin, group); }

inline util::Bytes encode_leave(const gcs::GroupName& group) {
  return encode_op(Op::kLeave, group);
}

inline util::Bytes encode_multicast(gcs::ServiceType service, const gcs::GroupName& group,
                                    std::int16_t msg_type, const util::Bytes& payload) {
  return encode_op(Op::kMulticast,
                   Multicast<const util::Bytes&>{service, group, msg_type, payload});
}

inline util::Bytes encode_bye() { return encode_op(Op::kBye); }

inline util::Bytes encode_welcome(const gcs::MemberId& id) {
  return encode_op(Op::kWelcome, id);
}

inline util::Bytes encode_message(const gcs::Message& msg) {
  return encode_op(Op::kMessage, msg);
}

inline util::Bytes encode_view(const gcs::GroupView& view) { return encode_op(Op::kView, view); }

inline util::Bytes encode_transitional(const gcs::GroupName& group) {
  return encode_op(Op::kTransitional, group);
}

}  // namespace ss::netd::wire
