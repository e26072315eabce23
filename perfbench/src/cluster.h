// The production stack of the secure workloads, in one process: three
// gcs::Daemons on one runtime::RealtimeEnv with one event lane per daemon
// (the arrangement of three `spreadd --lanes 1` processes), talking through
// one net::UdpTransport that owns three 127.0.0.1 sockets. There is no
// crypto worker pool: spreadd cannot enable one, so key agreement runs on
// the lanes.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "gcs/config.h"
#include "gcs/daemon.h"
#include "net/udp_transport.h"
#include "runtime/realtime_env.h"

namespace perfbench {

/// Daemon timeouts for the loopback cluster. Failure detection is slow
/// enough that a lane busy with an ss512 key-agreement step never looks
/// like a crashed daemon (steady state must show zero gathers). The link
/// RTO is the spreadd cluster harness's 100 ms: the link layer does not
/// restart its timer on ack progress, so under sustained traffic every RTO
/// resends the unacked window, and a short RTO turns that into noise.
ss::gcs::TimingConfig cluster_timing();

class Cluster {
 public:
  static constexpr std::size_t kDaemons = 3;

  /// Boots the daemons and waits until they share one view; throws
  /// std::runtime_error if they do not converge within 10 s.
  Cluster();
  /// Stops daemons, transport and lanes. Clients homed on the daemons must
  /// be destroyed (on their lanes) before this runs.
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  ss::gcs::Daemon& daemon(std::size_t d) { return *daemons_.at(d); }
  ss::runtime::RealtimeEnv& env() { return env_; }
  ss::net::UdpTransport& udp() { return *udp_; }

  /// Queues fn on daemon d's lane without waiting (the load path).
  void post(std::size_t d, std::function<void()> fn);
  /// Queues fn to run on daemon d's lane at a later time `at` (Clock time).
  void post_at(std::size_t d, ss::runtime::Time at, std::function<void()> fn);
  ss::runtime::Time now() const { return env_.now(); }
  /// Runs fn on daemon d's lane and waits (set-up and teardown only).
  void run_on(std::size_t d, const std::function<void()>& fn);

  /// DaemonStats summed over the daemons (read on each lane).
  ss::gcs::DaemonStats stats();

 private:
  ss::runtime::RealtimeEnv env_;
  std::unique_ptr<ss::net::UdpTransport> udp_;
  std::vector<ss::runtime::Env> envs_;
  std::vector<std::unique_ptr<ss::gcs::Daemon>> daemons_;
};

}  // namespace perfbench
