#include "gcs/link.h"

#include <deque>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/msgpath.h"
#include "util/serial.h"

namespace ss::gcs {

namespace {
constexpr std::uint8_t kFrameData = 0;
constexpr std::uint8_t kFrameAck = 1;
constexpr std::uint8_t kFrameRaw = 2;
constexpr std::uint8_t kFramePack = 3;
constexpr std::uint32_t kMaxBackoffShift = 8;  // RTO * 2^8 cap

// Reads a length-prefixed message that either rides in the frame's scatter
// body segment (zero-copy fast path: the sender chained the shared payload
// after the header) or lies inline after the header (crypto-linearized or
// hand-built frames).
util::SharedBytes read_msg(util::Reader& r, const util::Frame& f) {
  const std::uint32_t n = r.u32();
  if (f.body.empty()) return r.raw_shared(n);
  if (r.remaining() != 0 || f.body.size() != n) {
    throw util::SerialError("link: malformed scatter frame");
  }
  return f.body;
}
}  // namespace

LinkManager::LinkManager(const runtime::Env& env, std::uint64_t boot_id, TimingConfig timing,
                         DeliverFn deliver)
    : clock_(*env.clock),
      net_(*env.net),
      self_(env.self),
      boot_id_(boot_id),
      timing_(timing),
      deliver_(std::move(deliver)),
      retransmissions_("gcs.link.retransmissions", {{"daemon", std::to_string(self_)}}),
      frames_rejected_("gcs.link.frames_rejected", {{"daemon", std::to_string(self_)}}) {}

LinkManager::~LinkManager() { shutdown(); }

void LinkManager::shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  for (auto& [peer, st] : send_) {
    if (st.timer_armed) clock_.cancel(st.rto_timer);
    st.timer_armed = false;
    if (st.pack_armed) clock_.cancel(st.pack_timer);
    st.pack_armed = false;
  }
}

void LinkManager::ship(DaemonId to, util::Frame frame) {
  if (crypto_ != nullptr) {
    try {
      // Sealing needs contiguous bytes: linearize (counted) then wrap the
      // ciphertext as a bodyless frame.
      frame = util::Frame{util::SharedBytes(crypto_->seal(to, frame.to_bytes()))};
    } catch (const std::exception&) {
      return;  // peer not provisioned: refuse to talk to it
    }
  }
  ++util::msgpath().frames_sent;
  net_.send(self_, to, std::move(frame));
}

void LinkManager::transmit(DaemonId to, std::uint64_t seq, const util::SharedBytes& msg) {
  if (msg.size() > UINT32_MAX) throw util::SerialError("link: message too large");
  util::Writer w;
  w.u8(kFrameData);
  w.u64(boot_id_);
  w.u64(seq);
  w.u32(static_cast<std::uint32_t>(msg.size()));
  // Fresh header per transmission; the body is shared, never copied — this
  // is the writev() shape of the real daemons' link protocol.
  ship(to, util::Frame{w.take_shared(), msg});
}

void LinkManager::flush_pack(DaemonId to) {
  if (shutdown_) return;
  auto sit = send_.find(to);
  if (sit == send_.end()) return;
  SendState& st = sit->second;
  if (st.pack_armed) {
    clock_.cancel(st.pack_timer);
    st.pack_armed = false;
  }
  if (st.pack_queue.empty()) return;
  // Acks or a peer reboot may have retired queued seqs already; skip those.
  std::vector<std::pair<std::uint64_t, const util::SharedBytes*>> batch;
  batch.reserve(st.pack_queue.size());
  for (std::uint64_t seq : st.pack_queue) {
    auto it = st.unacked.find(seq);
    if (it != st.unacked.end()) batch.emplace_back(seq, &it->second);
  }
  st.pack_queue.clear();
  if (batch.empty()) return;
  if (batch.size() == 1) {
    transmit(to, batch.front().first, *batch.front().second);
    return;
  }
  util::Writer w;
  w.u8(kFramePack);
  w.u64(boot_id_);
  w.u32(static_cast<std::uint32_t>(batch.size()));
  for (const auto& [seq, msg] : batch) {
    w.u64(seq);
    w.u32(static_cast<std::uint32_t>(msg->size()));
    w.raw(msg->data(), msg->size());
  }
  util::MsgPathStats& mp = util::msgpath();
  ++mp.frames_packed;
  mp.messages_packed += batch.size();
  if (obs::TraceSink* s = obs::sink()) {
    s->instant("link", "link.pack", self_, 0, {{"peer", to}, {"msgs", batch.size()}});
  }
  ship(to, util::Frame{w.take_shared()});
}

void LinkManager::send(DaemonId to, util::SharedBytes msg) {
  if (shutdown_) return;
  if (to == self_) {
    // Local loopback: asynchronous, like a kernel socket to ourselves.
    // The capture shares the payload block; no bytes are copied.
    clock_.after(1, [this, msg = std::move(msg)] {
      if (!shutdown_) deliver_(self_, msg);
    });
    return;
  }
  SendState& st = send_[to];
  const std::uint64_t seq = st.next_seq++;
  st.unacked.emplace(seq, msg);
  if (timing_.link_pack_limit > 0 && msg.size() <= timing_.link_pack_limit) {
    // Small message: queue for packing, flushed later in this same instant
    // so any further sends to this peer from the same event join the pack.
    st.pack_queue.push_back(seq);
    if (!st.pack_armed) {
      st.pack_armed = true;
      st.pack_timer = clock_.after(0, [this, to] {
        // The timer has fired: there is nothing left for flush_pack to cancel.
        if (auto it = send_.find(to); it != send_.end()) it->second.pack_armed = false;
        flush_pack(to);
      });
    }
  } else {
    // Big message: flush queued smalls first so wire order matches seq
    // order (the receiver is go-back-N; inversions would cost an RTO).
    flush_pack(to);
    transmit(to, seq, msg);
  }
  arm_timer(to);
}

void LinkManager::send_raw(DaemonId to, const util::SharedBytes& msg) {
  if (shutdown_ || to == self_) return;
  if (msg.size() > UINT32_MAX) throw util::SerialError("link: message too large");
  util::Writer w;
  w.u8(kFrameRaw);
  w.u32(static_cast<std::uint32_t>(msg.size()));
  ship(to, util::Frame{w.take_shared(), msg});
}

void LinkManager::arm_timer(DaemonId peer) {
  SendState& st = send_[peer];
  if (st.timer_armed || st.unacked.empty()) return;
  st.timer_armed = true;
  const runtime::Time rto = timing_.link_rto << st.backoff_shift;
  st.rto_timer = clock_.after(rto, [this, peer] { on_timeout(peer); });
}

void LinkManager::on_timeout(DaemonId peer) {
  if (shutdown_) return;
  SendState& st = send_[peer];
  st.timer_armed = false;
  if (st.unacked.empty()) return;
  // The RTO runs from the last ack that made progress. Acks do not re-arm
  // the timer (a cancel per ack), so it may fire early: wait out the rest.
  const runtime::Time due = st.progress_at + (timing_.link_rto << st.backoff_shift);
  if (clock_.now() < due) {
    st.timer_armed = true;
    st.rto_timer = clock_.after(due - clock_.now(), [this, peer] { on_timeout(peer); });
    return;
  }
  // Go-back-N: resend everything outstanding (network is per-pair FIFO,
  // so the receiver reaccepts in order). Exponential backoff bounds the
  // retransmission churn toward partitioned or crashed peers.
  // Retransmissions share the original payload blocks — no copies.
  for (const auto& [seq, msg] : st.unacked) {
    retransmissions_.inc();
    transmit(peer, seq, msg);
  }
  if (obs::TraceSink* s = obs::sink()) {
    s->instant("link", "link.retransmit", self_, 0,
               {{"peer", peer}, {"msgs", st.unacked.size()}});
  }
  if (st.backoff_shift < kMaxBackoffShift) ++st.backoff_shift;
  arm_timer(peer);
}

void LinkManager::note_frame_rejected(DaemonId from) {
  frames_rejected_.inc();
  if (obs::TraceSink* s = obs::sink()) {
    s->instant("link", "link.reject", self_, 0, {{"peer", from}});
  }
}

void LinkManager::send_ack(DaemonId to, std::uint64_t echo_boot, std::uint64_t cum_seq) {
  util::Writer w;
  w.u8(kFrameAck);
  w.u64(echo_boot);
  w.u64(boot_id_);
  w.u64(cum_seq);
  ship(to, util::Frame{w.take_shared()});
}

void LinkManager::on_packet(DaemonId from, const util::Frame& raw) {
  if (shutdown_) return;
  util::Frame f = raw;
  if (crypto_ != nullptr) {
    try {
      f = util::Frame{util::SharedBytes(crypto_->open(from, raw.to_bytes()))};
    } catch (const std::exception&) {
      note_frame_rejected(from);  // forged/corrupt/unauthorized: drop
      return;
    }
  }
  try {
    dispatch_frame(from, f);
  } catch (const util::SerialError&) {
    note_frame_rejected(from);  // malformed/truncated frame: drop, stream intact
  }
}

void LinkManager::dispatch_frame(DaemonId from, const util::Frame& f) {
  util::Reader r(f.head);
  const std::uint8_t kind = r.u8();

  if (kind == kFrameRaw) {
    deliver_(from, read_msg(r, f));
    return;
  }

  if (kind == kFrameAck) {
    const std::uint64_t echo_boot = r.u64();
    const std::uint64_t peer_boot = r.u64();
    const std::uint64_t cum = r.u64();
    if (echo_boot != boot_id_) return;  // ack for a previous incarnation of us
    SendState& st = send_[from];
    if (st.peer_boot != 0 && st.peer_boot != peer_boot) {
      // Peer rebooted: its receive stream restarted. Renumber all unacked
      // messages from 1 and replay, so the fresh peer accepts them.
      st.peer_boot = peer_boot;
      st.pack_queue.clear();  // queued seqs are about to be renumbered
      if (st.pack_armed) {
        clock_.cancel(st.pack_timer);
        st.pack_armed = false;
      }
      std::deque<util::SharedBytes> backlog;
      for (auto& [seq, msg] : st.unacked) backlog.push_back(std::move(msg));
      st.unacked.clear();
      st.next_seq = 1;
      st.backoff_shift = 0;
      for (auto& msg : backlog) {
        const std::uint64_t seq = st.next_seq++;
        st.unacked.emplace(seq, msg);
        transmit(from, seq, msg);
      }
      if (st.timer_armed) {
        clock_.cancel(st.rto_timer);
        st.timer_armed = false;
      }
      arm_timer(from);
      return;
    }
    st.peer_boot = peer_boot;
    const bool progressed = !st.unacked.empty() && st.unacked.begin()->first <= cum;
    while (!st.unacked.empty() && st.unacked.begin()->first <= cum) {
      st.unacked.erase(st.unacked.begin());
    }
    if (progressed) {
      st.backoff_shift = 0;
      st.progress_at = clock_.now();
    }
    if (st.unacked.empty() && st.timer_armed) {
      clock_.cancel(st.rto_timer);
      st.timer_armed = false;
    }
    return;
  }

  if (kind == kFrameData) {
    const std::uint64_t boot = r.u64();
    const std::uint64_t seq = r.u64();
    util::SharedBytes msg = read_msg(r, f);
    RecvState& st = recv_[from];
    if (st.boot_id != boot) {
      // Peer restarted (or first contact): fresh stream.
      st.boot_id = boot;
      st.next_seq = 1;
    }
    if (seq == st.next_seq) {
      ++st.next_seq;
      send_ack(from, boot, seq);
      deliver_(from, msg);
    } else {
      // Duplicate (retransmission) or gap (a predecessor was lost; go-back-N
      // replays in order). Either way, ack what we have contiguously.
      send_ack(from, boot, st.next_seq - 1);
    }
    return;
  }

  if (kind == kFramePack) {
    const std::uint64_t boot = r.u64();
    const std::uint32_t count = r.u32();
    // Parse every inner message before delivering any: a truncated pack
    // throws here, so partial packs are all-or-nothing.
    std::vector<std::pair<std::uint64_t, util::SharedBytes>> inner;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t seq = r.u64();
      inner.emplace_back(seq, r.payload());
    }
    {
      RecvState& st = recv_[from];
      if (st.boot_id != boot) {
        st.boot_id = boot;
        st.next_seq = 1;
      }
    }
    for (auto& [seq, msg] : inner) {
      // Refetch per message: a delivery can reset or erase our state.
      RecvState& st = recv_[from];
      if (st.boot_id != boot) return;  // stream reset mid-pack: stop
      if (seq == st.next_seq) {
        ++st.next_seq;
        deliver_(from, msg);
      }
      if (shutdown_) return;
    }
    RecvState& st = recv_[from];
    // One cumulative ack per pack, not per inner message.
    if (st.boot_id == boot) send_ack(from, boot, st.next_seq - 1);
    return;
  }
  // Unknown frame kind: drop.
}

std::string LinkManager::debug_state() const {
  std::string out = "retrans=" + std::to_string(retransmissions_.value()) +
                    " rejected=" + std::to_string(frames_rejected_.value());
  for (const auto& [peer, st] : send_) {
    out += " tx" + std::to_string(peer) + "{next=" + std::to_string(st.next_seq) +
           " unacked=" + std::to_string(st.unacked.size());
    if (!st.unacked.empty()) out += " low=" + std::to_string(st.unacked.begin()->first);
    out += "}";
  }
  for (const auto& [peer, st] : recv_) {
    out += " rx" + std::to_string(peer) + "{next=" + std::to_string(st.next_seq) + "}";
  }
  return out;
}

void LinkManager::reset_peer(DaemonId peer) {
  auto it = send_.find(peer);
  if (it != send_.end()) {
    if (it->second.timer_armed) clock_.cancel(it->second.rto_timer);
    if (it->second.pack_armed) clock_.cancel(it->second.pack_timer);
    send_.erase(it);
  }
  recv_.erase(peer);
}

}  // namespace ss::gcs
