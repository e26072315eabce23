#include "cluster.h"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "net/endpoint.h"

namespace perfbench {

using namespace ss;

gcs::TimingConfig cluster_timing() {
  gcs::TimingConfig t;
  t.heartbeat_interval = 25 * runtime::kMillisecond;
  t.fd_check_interval = 25 * runtime::kMillisecond;
  t.fail_timeout = 2 * runtime::kSecond;
  t.link_rto = 100 * runtime::kMillisecond;
  t.gather_stable = 20 * runtime::kMillisecond;
  t.gather_timeout = runtime::kSecond;
  t.recovery_timeout = 2 * runtime::kSecond;
  return t;
}

Cluster::Cluster()
    : env_(runtime::RealtimeEnv::Options{/*delivery_delay=*/0, /*lanes=*/kDaemons,
                                         /*worker_threads=*/0}) {
  std::vector<gcs::DaemonId> ids;
  net::AddressMap map;
  for (std::size_t d = 0; d < kDaemons; ++d) {
    ids.push_back(env_.add_node());
    map.set(ids.back(), net::Endpoint::parse("127.0.0.1:0"));  // ephemeral port
  }
  udp_ = std::make_unique<net::UdpTransport>(env_, std::move(map));
  for (gcs::DaemonId id : ids) {
    runtime::Env e = env_.env(id);
    e.net = udp_.get();
    envs_.push_back(e);
    daemons_.push_back(std::make_unique<gcs::Daemon>(e, ids, cluster_timing(), 1000 + id));
    udp_->open_local(id);
    udp_->bind(id, daemons_.back().get());
  }
  udp_->start();
  env_.start();
  for (std::size_t d = 0; d < kDaemons; ++d) run_on(d, [this, d] { daemons_[d]->start(); });

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    bool all = true;
    for (std::size_t d = 0; d < kDaemons && all; ++d) {
      run_on(d, [&, d] {
        all = daemons_[d]->is_operational() && daemons_[d]->view_members().size() == kDaemons;
      });
    }
    if (all) break;
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error("perfbench: daemons did not converge within 10 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

Cluster::~Cluster() {
  for (std::size_t d = 0; d < kDaemons; ++d) {
    run_on(d, [this, d] {
      if (daemons_[d]->running()) daemons_[d]->stop();
    });
  }
  for (std::size_t d = 0; d < kDaemons; ++d) udp_->bind(envs_[d].self, nullptr);
  udp_->stop();
  env_.stop();
}

void Cluster::post(std::size_t d, std::function<void()> fn) {
  runtime::Clock* c = envs_.at(d).clock;
  c->at(c->now(), std::move(fn));
}

void Cluster::post_at(std::size_t d, runtime::Time at, std::function<void()> fn) {
  envs_.at(d).clock->at(at, std::move(fn));
}

void Cluster::run_on(std::size_t d, const std::function<void()>& fn) {
  env_.run_on_lane(env_.lane_of(envs_.at(d).self), fn);
}

gcs::DaemonStats Cluster::stats() {
  gcs::DaemonStats sum;
  for (std::size_t d = 0; d < kDaemons; ++d) {
    run_on(d, [&, d] {
      const gcs::DaemonStats& s = daemons_[d]->stats();
      sum.views_installed += s.views_installed;
      sum.gathers_started += s.gathers_started;
      sum.messages_delivered += s.messages_delivered;
      sum.control_changes += s.control_changes;
      sum.recovered_messages += s.recovered_messages;
      sum.retrans_served += s.retrans_served;
    });
  }
  return sum;
}

}  // namespace perfbench
