#include "net/udp_transport.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>
#include <utility>

#include "util/log.h"

namespace ss::net {

namespace {

constexpr std::size_t kMaxDatagram = 65536;
#ifdef __linux__
constexpr unsigned kRecvBatch = 8;  // datagrams per recvmmsg() call
#endif

sockaddr_in sockaddr_of(const Endpoint& ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = net16(ep.port);
  sa.sin_addr.s_addr = net32(ep.ip);
  return sa;
}

Endpoint endpoint_of_sockaddr(const sockaddr_in& sa) {
  Endpoint ep;
  ep.ip = net32(sa.sin_addr.s_addr);    // net32 is its own inverse
  ep.port = net16(sa.sin_port);
  return ep;
}

std::string errno_text(int err) { return std::generic_category().message(err); }

}  // namespace

UdpTransport::UdpTransport(runtime::RealtimeEnv& loops, AddressMap addresses)
    : loops_(loops) {
  {
    util::MutexLock lk(mu_);
    map_ = std::move(addresses);
    // Every mapped node starts "up": crash() is an explicit act.
    for (runtime::NodeId id = 0; id < map_.capacity(); ++id) ensure_slot(id);
  }
  if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::runtime_error("net: cannot create wakeup pipe: " + errno_text(errno));
  }
}

UdpTransport::~UdpTransport() {
  stop();
  util::MutexLock lk(mu_);
  for (int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

void UdpTransport::ensure_slot(runtime::NodeId id) {
  if (id >= fds_.size()) {
    fds_.resize(id + 1, -1);
    sinks_.resize(id + 1, nullptr);
    up_.resize(id + 1, true);
    clocks_.resize(id + 1, nullptr);
  }
}

void UdpTransport::open_local(runtime::NodeId id) {
  Endpoint ep;
  {
    util::MutexLock lk(mu_);
    ep = map_.of(id);  // throws std::out_of_range for unmapped nodes
    ensure_slot(id);
    if (fds_[id] >= 0) return;  // idempotent
  }

  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    const std::string msg = "cannot create UDP socket for node " + std::to_string(id) + ": " +
                            errno_text(errno);
    SS_LOG_ERROR("net", msg);
    throw std::runtime_error("net: " + msg);
  }
  // Best effort: a deep receive buffer rides out protocol bursts (the link
  // layer retransmits anyway, this just saves the round trips).
  const int rcvbuf = 1 << 20;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));

  sockaddr_in sa = sockaddr_of(ep);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    const int err = errno;
    std::string msg = "cannot bind node " + std::to_string(id) + " at " + ep.to_string() +
                      ": " + errno_text(err);
    if (err == EADDRINUSE) {
      msg += " (is another spreadd for this conf still running on this host?)";
    }
    SS_LOG_ERROR("net", msg);
    ::close(fd);
    throw std::runtime_error("net: " + msg);
  }
  if (ep.port == 0) {
    // Ephemeral bind: learn the kernel-assigned port and publish it so
    // in-process peers can address this node.
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      const std::string msg = "getsockname failed for node " + std::to_string(id) + ": " +
                              errno_text(errno);
      SS_LOG_ERROR("net", msg);
      ::close(fd);
      throw std::runtime_error("net: " + msg);
    }
    ep = endpoint_of_sockaddr(bound);
  }

  {
    util::MutexLock lk(mu_);
    map_.set(id, ep);
    fds_[id] = fd;
    clocks_[id] = loops_.env(id).clock;
  }
  SS_LOG_INFO("net", "node ", id, " listening on udp ", ep.to_string());
  wake();
}

Endpoint UdpTransport::endpoint_of(runtime::NodeId id) const {
  util::MutexLock lk(mu_);
  return map_.of(id);
}

void UdpTransport::start() {
  {
    util::MutexLock lk(mu_);
    if (started_) return;
    started_ = true;
    stopping_ = false;
  }
  rx_thread_ = std::thread([this] { loop(); });
}

void UdpTransport::stop() {
  {
    util::MutexLock lk(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  wake();
  rx_thread_.join();
  util::MutexLock lk(mu_);
  started_ = false;
}

void UdpTransport::wake() {
  const std::uint8_t one = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  (void)!::write(wake_pipe_[1], &one, 1);
}

void UdpTransport::send(runtime::NodeId from, runtime::NodeId to, util::Frame payload) {
  int fd = -1;
  sockaddr_in dst{};
  {
    util::MutexLock lk(mu_);
    if (from >= fds_.size() || fds_[from] < 0) {
      // Not a local node: nothing to send with. Counted as a send error —
      // this is a wiring bug, not network weather.
      counters_.send_errors.inc();
      return;
    }
    if (!up_[from] || (to < up_.size() && !up_[to])) {
      counters_.dropped_down.inc();
      return;
    }
    if (!map_.has(to)) {
      counters_.send_errors.inc();
      SS_LOG_WARN("net", "node ", from, ": no address configured for peer ", to,
                  "; datagram dropped");
      return;
    }
    fd = fds_[from];
    dst = sockaddr_of(map_.of(to));
  }

  // The scatter-gather handoff: head and body segments go to the kernel as
  // two iovecs. No linearization, no body copy — the whole point of
  // util::Frame survives down to the syscall.
  iovec iov[2];
  unsigned iovlen = 0;
  if (!payload.head.empty()) {
    iov[iovlen].iov_base = const_cast<std::uint8_t*>(payload.head.data());
    iov[iovlen].iov_len = payload.head.size();
    ++iovlen;
  }
  if (!payload.body.empty()) {
    iov[iovlen].iov_base = const_cast<std::uint8_t*>(payload.body.data());
    iov[iovlen].iov_len = payload.body.size();
    ++iovlen;
  }
  msghdr msg{};
  msg.msg_name = &dst;
  msg.msg_namelen = sizeof(dst);
  msg.msg_iov = iov;
  msg.msg_iovlen = iovlen;

  const ssize_t n = ::sendmsg(fd, &msg, 0);
  const int err = errno;  // before the lock: a contended acquire may clobber errno
  util::MutexLock lk(mu_);
  if (n >= 0) {
    counters_.packets_sent.inc();
    counters_.bytes_sent.inc(static_cast<std::uint64_t>(n));
  } else if (err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS) {
    // Kernel buffer full: backpressure becomes loss, which the link layer's
    // retransmission absorbs. Dropping beats blocking a protocol lane.
    counters_.send_backpressure_drops.inc();
  } else {
    counters_.send_errors.inc();
    SS_LOG_WARN("net", "node ", from, " -> ", to, ": sendmsg failed: ", errno_text(err));
  }
}

void UdpTransport::bind(runtime::NodeId id, runtime::PacketSink* sink) {
  util::MutexLock lk(mu_);
  ensure_slot(id);
  sinks_[id] = sink;
}

void UdpTransport::crash(runtime::NodeId id) {
  util::MutexLock lk(mu_);
  ensure_slot(id);
  up_[id] = false;
}

void UdpTransport::recover(runtime::NodeId id) {
  util::MutexLock lk(mu_);
  ensure_slot(id);
  up_[id] = true;
}

UdpTransport::Stats UdpTransport::stats() const {
  util::MutexLock lk(mu_);
  Stats s;
  s.packets_sent = counters_.packets_sent.value();
  s.bytes_sent = counters_.bytes_sent.value();
  s.packets_received = counters_.packets_received.value();
  s.bytes_received = counters_.bytes_received.value();
  s.send_backpressure_drops = counters_.send_backpressure_drops.value();
  s.send_errors = counters_.send_errors.value();
  s.recv_truncated = counters_.recv_truncated.value();
  s.recv_unknown_sender = counters_.recv_unknown_sender.value();
  s.dropped_down = counters_.dropped_down.value();
  s.recv_copies = counters_.recv_copies.value();
  s.recv_bytes_copied = counters_.recv_bytes_copied.value();
  return s;
}

void UdpTransport::loop() {
  std::vector<pollfd> pfds;
  std::vector<runtime::NodeId> owner;  // owner[i] = node of pfds[i+1]
  std::vector<std::uint8_t> scratch;

  for (;;) {
    pfds.clear();
    owner.clear();
    pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    {
      util::MutexLock lk(mu_);
      if (stopping_) return;
      for (runtime::NodeId id = 0; id < fds_.size(); ++id) {
        if (fds_[id] >= 0) {
          pfds.push_back(pollfd{fds_[id], POLLIN, 0});
          owner.push_back(id);
        }
      }
    }

    if (::poll(pfds.data(), pfds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      SS_LOG_ERROR("net", "poll failed: ", errno_text(errno));
      return;
    }
    if ((pfds[0].revents & POLLIN) != 0) {
      std::uint8_t drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }

    for (std::size_t i = 1; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR)) == 0) continue;
      const runtime::NodeId to = owner[i - 1];
      const int fd = pfds[i].fd;

#ifdef __linux__
      // Batch receive: one syscall drains up to kRecvBatch datagrams.
      if (scratch.size() < kRecvBatch * kMaxDatagram) {
        scratch.resize(kRecvBatch * kMaxDatagram);
      }
      mmsghdr msgs[kRecvBatch]{};
      iovec iovs[kRecvBatch];
      sockaddr_in sources[kRecvBatch]{};
      for (unsigned m = 0; m < kRecvBatch; ++m) {
        iovs[m].iov_base = scratch.data() + m * kMaxDatagram;
        iovs[m].iov_len = kMaxDatagram;
        msgs[m].msg_hdr.msg_iov = &iovs[m];
        msgs[m].msg_hdr.msg_iovlen = 1;
        msgs[m].msg_hdr.msg_name = &sources[m];
        msgs[m].msg_hdr.msg_namelen = sizeof(sources[m]);
      }
      for (;;) {
        const int got = ::recvmmsg(fd, msgs, kRecvBatch, 0, nullptr);
        if (got <= 0) break;  // EAGAIN: socket drained
        for (int m = 0; m < got; ++m) {
          const std::uint8_t* data = scratch.data() + static_cast<unsigned>(m) * kMaxDatagram;
          const std::size_t len = msgs[m].msg_len;
          const bool truncated = (msgs[m].msg_hdr.msg_flags & MSG_TRUNC) != 0;
          on_datagram(to, sources[m], data, len, truncated);
        }
        if (got < static_cast<int>(kRecvBatch)) break;
      }
#else
      if (scratch.size() < kMaxDatagram) scratch.resize(kMaxDatagram);
      for (;;) {
        sockaddr_in source{};
        socklen_t slen = sizeof(source);
        const ssize_t got = ::recvfrom(fd, scratch.data(), scratch.size(), MSG_TRUNC,
                                       reinterpret_cast<sockaddr*>(&source), &slen);
        if (got < 0) break;
        const bool truncated = static_cast<std::size_t>(got) > scratch.size();
        on_datagram(to, source, scratch.data(),
                    truncated ? scratch.size() : static_cast<std::size_t>(got), truncated);
      }
#endif
    }
  }
}

void UdpTransport::on_datagram(runtime::NodeId to, const sockaddr_in& source,
                               const std::uint8_t* data, std::size_t len, bool truncated) {
  runtime::Clock* clk = nullptr;
  runtime::NodeId from = runtime::kInvalidNode;
  {
    util::MutexLock lk(mu_);
    if (truncated) {
      counters_.recv_truncated.inc();
      return;
    }
    const auto sender = map_.find(endpoint_of_sockaddr(source));
    if (!sender.has_value()) {
      counters_.recv_unknown_sender.inc();
      return;
    }
    from = *sender;
    if (!up_[to] || (from < up_.size() && !up_[from])) {
      counters_.dropped_down.inc();
      return;
    }
    counters_.packets_received.inc();
    counters_.bytes_received.inc(len);
    counters_.recv_copies.inc();
    counters_.recv_bytes_copied.inc(len);
    clk = clocks_[to];
  }

  // The one unavoidable kernel->user materialization: the datagram becomes
  // a fresh shared block (counted above as a recv copy, not a msgpath
  // payload copy — those track send-path behaviour). The link layer parses
  // this contiguous frame through its inline path, zero-copy from here on.
  util::Frame frame{util::SharedBytes(util::Bytes(data, data + len))};

  // Marshal onto the destination's home lane; re-check liveness there so a
  // packet racing crash()/bind(nullptr) dies instead of hitting a stale
  // sink (same discipline as RealtimeEnv's queue transport).
  clk->at(clk->now(), [this, from, to, frame = std::move(frame)] {
    runtime::PacketSink* sink = nullptr;
    {
      util::MutexLock lk(mu_);
      if (to >= up_.size() || !up_[to] || (from < up_.size() && !up_[from])) {
        counters_.dropped_down.inc();
        return;
      }
      sink = sinks_[to];
      if (sink == nullptr) {
        counters_.dropped_down.inc();
        return;
      }
    }
    sink->on_packet(from, frame);
  });
}

}  // namespace ss::net
