// runtime::Transport over real non-blocking UDP sockets.
//
// This is the backend the paper actually ran on: Spread daemons exchanging
// UDP datagrams on a LAN. One UdpTransport serves a process; every *local*
// node (normally one — spreadd hosts a single daemon, in-process tests host
// several for loopback clusters) gets its own socket bound to its entry in
// the AddressMap, and a single receive thread polls all of them.
//
// Zero-copy contract (transport.h): a frame's body block is never copied to
// enqueue it. send() hands the head and body segments straight to
// sendmsg() as an iovec pair — the scatter-gather path of util::Frame runs
// down to the kernel boundary. The receive side necessarily materializes
// each datagram once (kernel -> user copy into a fresh block, counted in
// Stats::recv_copies / net.udp.recv_copies, *not* in the msgpath
// payload-copy counters, which keep meaning "copies our code performs on
// the send path").
//
// Threading. The receive thread owns poll() and the sockets' read side; it
// never touches protocol state. Each datagram is resolved to (from, to) by
// the source-address reverse lookup, then marshalled onto the destination
// node's home lane through the node's runtime::Clock (RealtimeEnv routes
// at() to the lane) — so PacketSink::on_packet fires on exactly the same
// thread that owns the rest of that node's protocol state, preserving the
// "one lane owns a node" discipline of DESIGN.md §11. Up/down state and
// the sink pointer are re-checked on the lane at delivery time, so a
// packet that raced crash()/bind(nullptr) is dropped, not delivered stale.
//
// Loss model: UDP may drop; additionally a full socket send buffer
// (EAGAIN) drops the datagram and counts it — backpressure is loss, which
// the link layer (gcs/link.h go-back-N) absorbs by design.
#pragma once

#include <cstdint>
#include <thread>
#include <vector>

#include "net/endpoint.h"
#include "obs/metrics.h"
#include "runtime/realtime_env.h"
#include "util/mutex.h"
#include "util/thread_safety.h"

struct sockaddr_in;  // <netinet/in.h>, pulled in by the .cpp only

namespace ss::net {

class UdpTransport final : public runtime::Transport {
 public:
  /// Socket-level counters, listed in the obs registry as net.udp.<field>.
  /// Plain snapshot struct; read via stats().
  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t packets_received = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t send_backpressure_drops = 0;  // EAGAIN: kernel buffer full
    std::uint64_t send_errors = 0;              // other sendmsg failures
    std::uint64_t recv_truncated = 0;           // datagram larger than our buffer
    std::uint64_t recv_unknown_sender = 0;      // source address not in the map
    std::uint64_t dropped_down = 0;             // crash()ed endpoint, either side
    std::uint64_t recv_copies = 0;              // kernel->user materializations
    std::uint64_t recv_bytes_copied = 0;
  };

  /// `loops` provides the event lanes packets are delivered on and must
  /// outlive the transport. `addresses` is the static cluster address plan.
  UdpTransport(runtime::RealtimeEnv& loops, AddressMap addresses);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Opens and binds this process's socket for `id` (which must be in the
  /// address map). A mapped port of 0 binds an ephemeral port and writes
  /// the actual one back into the map (in-process tests use this to dodge
  /// port races). Throws std::runtime_error — after logging an actionable
  /// message through util::log — on socket/bind failure (EADDRINUSE names
  /// the endpoint and the likely stale process).
  void open_local(runtime::NodeId id) SS_EXCLUDES(mu_);

  /// The (possibly rewritten) address map entry for a node.
  Endpoint endpoint_of(runtime::NodeId id) const SS_EXCLUDES(mu_);

  /// Starts / stops the receive thread. start() is idempotent; stop() joins
  /// the thread but keeps sockets open (the destructor closes them).
  void start() SS_EXCLUDES(mu_);
  void stop() SS_EXCLUDES(mu_);

  // --- runtime::Transport ---------------------------------------------------
  /// `from` must be a local, open_local()ed node; datagrams to unmapped or
  /// crashed destinations are counted and dropped (never an error: this is
  /// a lossy medium).
  void send(runtime::NodeId from, runtime::NodeId to, util::Frame payload) override
      SS_EXCLUDES(mu_);
  void bind(runtime::NodeId id, runtime::PacketSink* sink) override SS_EXCLUDES(mu_);
  void crash(runtime::NodeId id) override SS_EXCLUDES(mu_);
  void recover(runtime::NodeId id) override SS_EXCLUDES(mu_);

  Stats stats() const SS_EXCLUDES(mu_);

 private:
  /// One counter per Stats field. Bumped under mu_, so stats() reads a
  /// coherent snapshot; the registry reads the atomics without it.
  struct Counters {
    obs::Counter packets_sent{"net.udp.packets_sent"};
    obs::Counter bytes_sent{"net.udp.bytes_sent"};
    obs::Counter packets_received{"net.udp.packets_received"};
    obs::Counter bytes_received{"net.udp.bytes_received"};
    obs::Counter send_backpressure_drops{"net.udp.send_backpressure_drops"};
    obs::Counter send_errors{"net.udp.send_errors"};
    obs::Counter recv_truncated{"net.udp.recv_truncated"};
    obs::Counter recv_unknown_sender{"net.udp.recv_unknown_sender"};
    obs::Counter dropped_down{"net.udp.dropped_down"};
    obs::Counter recv_copies{"net.udp.recv_copies"};
    obs::Counter recv_bytes_copied{"net.udp.recv_bytes_copied"};
  };

  void loop() SS_EXCLUDES(mu_);
  /// One received datagram, on the receive thread: resolve the sender,
  /// account it, and marshal delivery onto `to`'s home lane.
  void on_datagram(runtime::NodeId to, const sockaddr_in& source, const std::uint8_t* data,
                   std::size_t len, bool truncated) SS_EXCLUDES(mu_);
  void ensure_slot(runtime::NodeId id) SS_REQUIRES(mu_);
  void wake();

  runtime::RealtimeEnv& loops_;

  mutable util::Mutex mu_;
  AddressMap map_ SS_GUARDED_BY(mu_);
  std::vector<int> fds_ SS_GUARDED_BY(mu_);  // -1 = no local socket for the id
  std::vector<runtime::PacketSink*> sinks_ SS_GUARDED_BY(mu_);
  std::vector<bool> up_ SS_GUARDED_BY(mu_);
  std::vector<runtime::Clock*> clocks_ SS_GUARDED_BY(mu_);  // home-lane routers
  Counters counters_ SS_GUARDED_BY(mu_);
  bool stopping_ SS_GUARDED_BY(mu_) = false;
  bool started_ SS_GUARDED_BY(mu_) = false;

  int wake_pipe_[2] = {-1, -1};  // written under mu_ only in ctor; read-only after
  std::thread rx_thread_;        // started in start(), joined in stop()
};

}  // namespace ss::net
