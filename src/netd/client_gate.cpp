#include "netd/client_gate.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>
#include <utility>

#include "netd/client_wire.h"
#include "util/log.h"

namespace ss::netd {

namespace {

std::string errno_text(int err) { return std::generic_category().message(err); }

constexpr std::uint32_t kLoopbackIp = 0x7f000001;  // 127.0.0.1

}  // namespace

/// One accepted client connection. `fd` and `in` belong to the gate
/// thread; `out`/`wedged` are written by daemon-lane callbacks and drained
/// by the gate thread, both under ClientGate::mu_.
struct ClientGate::Conn final : gcs::ClientCallbacks {
  explicit Conn(ClientGate& g) : gate(g) {}

  // gcs::ClientCallbacks — invoked on the daemon's home lane.
  void deliver_message(const gcs::Message& msg) override {
    gate.enqueue(*this, wire::encode_message(msg));
  }
  void deliver_view(const gcs::GroupView& view) override {
    gate.enqueue(*this, wire::encode_view(view));
  }
  void deliver_transitional(const gcs::GroupName& group) override {
    gate.enqueue(*this, wire::encode_transitional(group));
  }

  ClientGate& gate;
  int fd = -1;
  gcs::MemberId id{};
  util::Bytes in;  // gate thread only
  util::Bytes out;        // under gate.mu_
  bool wedged = false;    // under gate.mu_: output overflowed, drop on sight
  bool graceful = false;  // client said kBye (vs. EOF/error = crash)
};

ClientGate::ClientGate(DaemonHost& host) : host_(host) {
  if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::runtime_error("netd: cannot create gate wakeup pipe: " + errno_text(errno));
  }
}

ClientGate::~ClientGate() {
  stop();
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

net::Endpoint ClientGate::start(std::uint16_t port) {
  {
    util::MutexLock lk(mu_);
    if (running_) return ep_;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    const std::string msg = "netd: cannot create client listener: " + errno_text(errno);
    SS_LOG_ERROR("netd", msg);
    throw std::runtime_error(msg);
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = net::net16(port);
  sa.sin_addr.s_addr = net::net32(kLoopbackIp);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::listen(fd, 16) != 0) {
    const int err = errno;
    ::close(fd);
    std::string msg = "netd: cannot listen for clients on 127.0.0.1:" + std::to_string(port) +
                      ": " + errno_text(err);
    if (err == EADDRINUSE) msg += " (is another spreadd's client port still bound?)";
    SS_LOG_ERROR("netd", msg);
    throw std::runtime_error(msg);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  {
    util::MutexLock lk(mu_);
    listen_fd_ = fd;
    ep_ = net::Endpoint{kLoopbackIp, net::net16(bound.sin_port)};
    running_ = true;
  }
  thread_ = std::thread([this] { loop(); });
  return endpoint();
}

void ClientGate::stop() {
  {
    util::MutexLock lk(mu_);
    if (!running_) return;
    running_ = false;
  }
  wake();
  thread_.join();
  // Gate thread gone: detach stragglers as crashes.
  std::vector<std::unique_ptr<Conn>> stragglers;
  {
    util::MutexLock lk(mu_);
    stragglers.swap(conns_);
  }
  for (auto& c : stragglers) close_conn(std::move(c));
  ::close(listen_fd_);
  listen_fd_ = -1;
}

net::Endpoint ClientGate::endpoint() const {
  util::MutexLock lk(mu_);
  return ep_;
}

std::size_t ClientGate::connections() const {
  // conns_ is mutated only by the gate thread and by stop() after joining
  // it; a racy size read is fine for test polling.
  util::MutexLock lk(mu_);
  return conns_.size();
}

void ClientGate::wake() {
  const std::uint8_t b = 0;
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
}

void ClientGate::enqueue(Conn& c, const util::Bytes& framed) {
  bool overflow = false;
  {
    util::MutexLock lk(mu_);
    if (c.wedged) return;
    if (c.out.size() + framed.size() > kMaxBuffered) {
      c.wedged = true;
      overflow = true;
    } else {
      c.out.insert(c.out.end(), framed.begin(), framed.end());
    }
  }
  if (overflow) {
    SS_LOG_WARN("netd", "client ", c.id.to_string(), " output overflow (", kMaxBuffered,
                " bytes buffered); disconnecting");
  }
  wake();
}

void ClientGate::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        SS_LOG_WARN("netd", "client accept failed: ", errno_text(errno));
      }
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>(*this);
    conn->fd = fd;
    Conn* c = conn.get();
    host_.run_on_home([this, c] { c->id = host_.daemon().attach_client(c); });
    enqueue(*c, wire::encode_welcome(c->id));
    {
      // All conns_ mutations happen on this thread but under mu_, so
      // connections() can read the size from anywhere.
      util::MutexLock lk(mu_);
      conns_.push_back(std::move(conn));
    }
  }
}

bool ClientGate::handle_frame(Conn& c, const util::Bytes& body) {
  try {
    switch (wire::peek_op(body)) {
      case wire::Op::kJoin: {
        const auto group = wire::decode_op<gcs::GroupName>(body);
        host_.run_on_home([this, &c, group] { host_.daemon().client_join(c.id, group); });
        return true;
      }
      case wire::Op::kLeave: {
        const auto group = wire::decode_op<gcs::GroupName>(body);
        host_.run_on_home([this, &c, group] { host_.daemon().client_leave(c.id, group); });
        return true;
      }
      case wire::Op::kMulticast: {
        auto m = wire::decode_op<wire::Multicast<util::SharedBytes>>(body);
        host_.run_on_home([this, &c, m = std::move(m)] {
          host_.daemon().client_multicast(c.id, m.service, m.group, m.msg_type, m.payload);
        });
        return true;
      }
      case wire::Op::kBye:
        util::decode<wire::Op>(body);  // the op byte is the whole frame
        c.graceful = true;
        return false;
      default:
        SS_LOG_WARN("netd", "client ", c.id.to_string(), " sent a gate-to-client wire op");
        return false;
    }
  } catch (const util::SerialError& e) {
    SS_LOG_WARN("netd", "client ", c.id.to_string(), " sent a malformed frame: ", e.what());
    return false;
  }
}

bool ClientGate::read_ready(Conn& c) {
  // Drain the socket first, then parse: a client that writes kBye and
  // closes in one breath delivers the goodbye and the EOF together, and
  // the goodbye must still be seen (it is what distinguishes a leave from
  // a crash).
  bool gone = false;
  std::uint8_t buf[16384];
  while (!gone) {
    const ssize_t n = ::read(c.fd, buf, sizeof(buf));
    if (n > 0) {
      c.in.insert(c.in.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {
      gone = true;  // EOF: client went away (after we parse what it sent)
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      gone = true;
    }
  }
  try {
    while (std::optional<util::Bytes> body = wire::next_frame(c.in)) {
      if (!handle_frame(c, *body)) return false;
    }
  } catch (const util::SerialError& e) {
    SS_LOG_WARN("netd", "client ", c.id.to_string(), " framing error: ", e.what());
    return false;
  }
  return !gone;
}

bool ClientGate::write_ready(Conn& c) {
  util::MutexLock lk(mu_);
  while (!c.out.empty()) {
    // MSG_NOSIGNAL: a client killed mid-write (the crash fault path) must
    // surface as EPIPE here, not SIGPIPE-terminate the whole daemon.
    const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c.out.erase(c.out.begin(), c.out.begin() + n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

void ClientGate::close_conn(std::unique_ptr<Conn> c) {
  // Daemon-side detach first: after this returns, schedule_client_delivery
  // drops anything still in flight for this client (connected=false is
  // checked at fire time on the home lane), so deleting the Conn is safe.
  const gcs::MemberId id = c->id;
  const bool graceful = c->graceful;
  host_.run_on_home([this, id, graceful] { host_.daemon().detach_client(id, graceful); });
  ::close(c->fd);
}

void ClientGate::loop() {
  std::vector<pollfd> pfds;
  for (;;) {
    {
      util::MutexLock lk(mu_);
      if (!running_) return;
      pfds.clear();
      pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
      pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
      for (const auto& c : conns_) {
        short ev = POLLIN;
        if (!c->out.empty() || c->wedged) ev |= POLLOUT;
        pfds.push_back(pollfd{c->fd, ev, 0});
      }
    }
    if (::poll(pfds.data(), pfds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      SS_LOG_ERROR("netd", "client gate poll failed: ", errno_text(errno));
      return;
    }
    if ((pfds[0].revents & POLLIN) != 0) {
      std::uint8_t drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if ((pfds[1].revents & POLLIN) != 0) accept_ready();
    // pfds[i + 2] corresponds to conns_[i] as of the snapshot; accepting
    // above only appends, so the mapping for existing entries holds. Dead
    // connections are only marked here and swept below — erasing mid-pass
    // would shift conns_ out of sync with pfds.
    std::vector<std::size_t> dead;
    for (std::size_t i = 0; i + 2 < pfds.size() && i < conns_.size(); ++i) {
      Conn& c = *conns_[i];
      const short rev = pfds[i + 2].revents;
      // POLLHUP/POLLERR arrive together with the final POLLIN when a client
      // writes its goodbye and closes; read first so that goodbye is seen.
      bool ok = (rev & POLLNVAL) == 0;
      if (ok && (rev & (POLLIN | POLLHUP | POLLERR)) != 0) ok = read_ready(c);
      if (ok && (rev & POLLOUT) != 0) ok = write_ready(c);
      {
        util::MutexLock lk(mu_);
        ok = ok && !c.wedged;
      }
      if (!ok) dead.push_back(i);
    }
    for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
      std::unique_ptr<Conn> gone;
      {
        util::MutexLock lk(mu_);
        gone = std::move(conns_[*it]);
        conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(*it));
      }
      close_conn(std::move(gone));  // blocks on the home lane: not under mu_
    }
  }
}

}  // namespace ss::netd
