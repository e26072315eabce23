// Reliable FIFO point-to-point links between daemons.
//
// The simulated network may drop packets (never corrupt, duplicate or
// reorder within a pair). This layer adds sequence numbers, cumulative acks
// and go-back-N retransmission so that everything above it (membership,
// ordered multicast) sees loss-free FIFO channels, as the Spread daemons'
// link protocols provide. Boot ids detect peer restarts: a peer that crashed
// and recovered gets a fresh receive context instead of a stale one.
//
// Data path: messages are refcounted SharedBytes; a transmission writes a
// fresh small header and chains the message body as the Frame's scatter
// segment, so retransmissions and multi-peer fan-out never copy payload
// bytes. Small messages (<= TimingConfig::link_pack_limit) are coalesced
// per destination into one pack frame, flushed in the same scheduler
// instant — Spread's message packing, with zero added latency. Packing
// lives below the EVS layer: the receiver unpacks in order, so FIFO/order
// semantics above are unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "gcs/config.h"
#include "gcs/link_crypto.h"
#include "gcs/types.h"
#include "obs/metrics.h"
#include "runtime/env.h"
#include "util/frame.h"
#include "util/shared_bytes.h"

namespace ss::gcs {

class LinkManager {
 public:
  using DeliverFn = std::function<void(DaemonId from, const util::SharedBytes& msg)>;

  /// `env` must outlive the manager; env.self is this daemon's address.
  LinkManager(const runtime::Env& env, std::uint64_t boot_id, TimingConfig timing,
              DeliverFn deliver);
  ~LinkManager();

  LinkManager(const LinkManager&) = delete;
  LinkManager& operator=(const LinkManager&) = delete;

  /// Reliable FIFO delivery (eventually, while connectivity holds).
  /// Sending to self delivers locally through the scheduler.
  void send(DaemonId to, util::SharedBytes msg);

  /// Fire-and-forget (heartbeats).
  void send_raw(DaemonId to, const util::SharedBytes& msg);

  /// Feeds an incoming network datagram into the link layer.
  void on_packet(DaemonId from, const util::Frame& frame);

  /// Drops unacked traffic to a peer and resets its receive context.
  /// Called when a view excluding the peer is installed.
  void reset_peer(DaemonId peer);

  /// Cancels all timers (daemon stop/crash).
  void shutdown();

  /// Enables link-layer encryption: every outgoing frame is sealed for its
  /// destination and every incoming frame authenticated (paper Section 5:
  /// daemons protect themselves against malicious network attackers).
  /// The LinkCrypto must outlive this manager. Sealing needs a contiguous
  /// frame, so crypto linearizes the scatter segments (counted copies).
  void set_crypto(LinkCrypto* crypto) { crypto_ = crypto; }

  std::uint64_t retransmissions() const { return retransmissions_.value(); }
  /// Frames dropped by the crypto layer (forged/corrupt/unauthorized).
  std::uint64_t frames_rejected() const { return frames_rejected_.value(); }
  /// One-line dump of every per-peer stream state (diagnostics).
  std::string debug_state() const;

 private:
  struct SendState {
    std::uint64_t next_seq = 1;
    std::uint64_t peer_boot = 0;  // last boot id seen in the peer's acks
    std::map<std::uint64_t, util::SharedBytes> unacked;  // seq -> unframed message
    runtime::TimerId rto_timer = 0;
    bool timer_armed = false;
    std::uint32_t backoff_shift = 0;
    // Small messages queued for packing; flushed in the same instant.
    std::vector<std::uint64_t> pack_queue;
    runtime::TimerId pack_timer = 0;
    bool pack_armed = false;
  };
  struct RecvState {
    std::uint64_t boot_id = 0;  // 0 = none seen yet
    std::uint64_t next_seq = 1;
  };

  void arm_timer(DaemonId peer);
  void on_timeout(DaemonId peer);
  /// Parses and acts on a decrypted frame; throws SerialError on malformed
  /// input (contained — and counted — by on_packet).
  void dispatch_frame(DaemonId from, const util::Frame& frame);
  void ship(DaemonId to, util::Frame frame);
  void transmit(DaemonId to, std::uint64_t seq, const util::SharedBytes& msg);
  /// Sends the queued small messages to `to` as one pack frame (or a plain
  /// frame if only one survived). No-op when the queue is empty.
  void flush_pack(DaemonId to);
  /// Counts and traces a rejected frame.
  void note_frame_rejected(DaemonId from);
  void send_ack(DaemonId to, std::uint64_t boot_id, std::uint64_t cum_seq);

  runtime::Clock& clock_;
  runtime::Transport& net_;
  DaemonId self_;
  std::uint64_t boot_id_;
  TimingConfig timing_;
  DeliverFn deliver_;
  std::map<DaemonId, SendState> send_;
  std::map<DaemonId, RecvState> recv_;
  bool shutdown_ = false;
  LinkCrypto* crypto_ = nullptr;
  obs::Counter retransmissions_;  // gcs.link.retransmissions{daemon=<id>}
  obs::Counter frames_rejected_;  // gcs.link.frames_rejected{daemon=<id>}
};

}  // namespace ss::gcs
