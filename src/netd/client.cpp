#include "netd/client.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <system_error>

#include "netd/client_wire.h"
#include "util/log.h"

namespace ss::netd {

namespace {

std::string errno_text(int err) { return std::generic_category().message(err); }

int remaining_ms(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > 60'000) return 60'000;
  return static_cast<int>(left.count());
}

}  // namespace

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::fail(const std::string& what) {
  SS_LOG_WARN("netd", "client: ", what);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  throw std::runtime_error("netd client: " + what);
}

void Client::connect(const net::Endpoint& gate, std::chrono::milliseconds timeout) {
  if (fd_ >= 0) fail("already connected");
  // One deadline covers the whole handshake: TCP connect AND the welcome
  // read. The connect is done non-blocking + poll so a black-holed address
  // or a stalled accept queue cannot hang past `timeout`.
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("cannot create socket: " + errno_text(errno));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = net::net16(gate.port);
  sa.sin_addr.s_addr = net::net32(gate.ip);
  auto fail_connect = [&](int err) {
    ::close(fd);
    fail("cannot connect to " + gate.to_string() + ": " + errno_text(err) +
         (err == ECONNREFUSED ? " (is spreadd running and its client gate enabled?)" : ""));
  };
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    if (errno != EINPROGRESS) fail_connect(errno);
    for (;;) {
      pollfd pfd{fd, POLLOUT, 0};
      const int rv = ::poll(&pfd, 1, remaining_ms(deadline));
      if (rv > 0) break;
      if (rv == 0) {
        ::close(fd);
        fail("connect to " + gate.to_string() + " timed out");
      }
      if (errno != EINTR) fail_connect(errno);
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) err = errno;
    if (err != 0) fail_connect(err);
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
    fail_connect(errno);  // restore blocking mode: send_frame relies on it
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  in_.clear();

  std::optional<util::Bytes> body = read_frame(deadline);
  if (!body) fail("no welcome from " + gate.to_string() + " before the timeout");
  if (wire::peek_op(*body) != wire::Op::kWelcome) fail("gate spoke before welcoming us");
  id_ = wire::decode_op<gcs::MemberId>(*body);
}

void Client::connect_to(const std::string& gate_address) {
  connect(net::Endpoint::parse(gate_address));
}

void Client::join(const gcs::GroupName& group) { send_frame(wire::encode_join(group)); }

void Client::leave(const gcs::GroupName& group) { send_frame(wire::encode_leave(group)); }

void Client::multicast(gcs::ServiceType service, const gcs::GroupName& group,
                       std::int16_t msg_type, const util::Bytes& payload) {
  send_frame(wire::encode_multicast(service, group, msg_type, payload));
}

void Client::disconnect() {
  if (fd_ < 0) return;
  try {
    send_frame(wire::encode_bye());
  } catch (const std::runtime_error&) {
    return;  // fail() already closed the socket
  }
  ::close(fd_);
  fd_ = -1;
}

void Client::kill() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
}

void Client::send_frame(const util::Bytes& framed) {
  if (fd_ < 0) fail("not connected");
  std::size_t off = 0;
  while (off < framed.size()) {
    // MSG_NOSIGNAL: a daemon that died under us must surface as EPIPE (and
    // become the runtime_error below), not SIGPIPE-kill the client process.
    const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    fail("send failed: " + errno_text(errno));
  }
}

std::optional<util::Bytes> Client::read_frame(std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    if (std::optional<util::Bytes> body = wire::next_frame(in_)) return body;
    // A wait that rounds down to 0 ms still polls once without blocking, so
    // a short timeout reads whatever already sits in the socket.
    pollfd pfd{fd_, POLLIN, 0};
    const int rv = ::poll(&pfd, 1, remaining_ms(deadline));
    if (rv < 0) {
      if (errno == EINTR) continue;
      fail("poll failed: " + errno_text(errno));
    }
    if (rv == 0) return std::nullopt;
    std::uint8_t buf[16384];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      in_.insert(in_.end(), buf, buf + n);
    } else if (n == 0) {
      fail("daemon closed the connection");
    } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
      fail("receive failed: " + errno_text(errno));
    }
  }
}

std::optional<Client::Event> Client::next_event(std::chrono::milliseconds timeout) {
  if (fd_ < 0) fail("not connected");
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    std::optional<util::Bytes> body = read_frame(deadline);
    if (!body) return std::nullopt;
    Event ev;
    switch (wire::peek_op(*body)) {
      case wire::Op::kMessage:
        ev.kind = Event::Kind::kMessage;
        ev.message = wire::decode_op<gcs::Message>(*body);
        ev.group = ev.message.group;
        return ev;
      case wire::Op::kView:
        ev.kind = Event::Kind::kView;
        ev.view = wire::decode_op<gcs::GroupView>(*body);
        ev.group = ev.view.group;
        return ev;
      case wire::Op::kTransitional:
        ev.kind = Event::Kind::kTransitional;
        ev.group = wire::decode_op<gcs::GroupName>(*body);
        return ev;
      default:
        // A late duplicate welcome or a client-to-gate op: skip it rather
        // than tearing the connection down.
        SS_LOG_WARN("netd", "client: ignoring unexpected wire op");
        break;
    }
  }
}

}  // namespace ss::netd
