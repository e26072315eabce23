// Shared test harness: a simulated cluster of daemons plus recording
// clients. Used by the gcs, flush and secure-layer test suites.
//
// Every Cluster installs a check::InvariantChecker as the process-wide
// client trace for its lifetime, so all clients created against its daemons
// (RecordingClient, FlushMailbox, SecureGroupClient — in any test) have the
// EVS/VS/key-consistency protocol invariants enforced automatically. The
// checker's verdict is asserted in the Cluster destructor.
//
// Each Cluster also installs its own obs::MetricsRegistry before it builds
// its daemons, so every component built against the cluster lists its
// counters there (components bind to the registry current at their
// construction), and it zeroes the process-wide util::msgpath() counters.
// Metrics recorded by one test therefore never bleed into another's
// assertions, even when the whole suite runs in one process. The registry
// is declared before the daemons and outlives them; components a test
// builds must be destroyed before its Cluster.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/invariant_checker.h"
#include "gcs/daemon.h"
#include "gcs/mailbox.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "util/msgpath.h"

namespace ss::testing {

/// Records everything a Mailbox delivers.
class RecordingClient {
 public:
  explicit RecordingClient(gcs::Daemon& daemon) : mbox_(daemon) {
    mbox_.on_message([this](const gcs::Message& m) { messages.push_back(m); });
    mbox_.on_view([this](const gcs::GroupView& v) { views.push_back(v); });
    mbox_.on_transitional([this](const gcs::GroupName& g) { transitionals.push_back(g); });
  }

  gcs::Mailbox& mbox() { return mbox_; }
  const gcs::MemberId& id() const { return mbox_.id(); }

  const gcs::GroupView* last_view(const gcs::GroupName& group) const {
    for (auto it = views.rbegin(); it != views.rend(); ++it) {
      if (it->group == group) return &*it;
    }
    return nullptr;
  }

  std::vector<std::string> payloads(const gcs::GroupName& group) const {
    std::vector<std::string> out;
    for (const auto& m : messages) {
      if (m.group == group) out.push_back(util::string_of(m.payload));
    }
    return out;
  }

  std::vector<gcs::Message> messages;
  std::vector<gcs::GroupView> views;
  std::vector<gcs::GroupName> transitionals;

 private:
  gcs::Mailbox mbox_;
};

/// N daemons on a simulated LAN, all started and merged into one view.
class Cluster {
 public:
  explicit Cluster(std::size_t n, std::uint64_t seed = 42,
                   gcs::TimingConfig timing = {}, sim::LinkModel link = {})
      : net(sched, seed, link), trace_scope_(checker), metrics_scope_(metrics) {
    util::msgpath_reset();
    std::vector<gcs::DaemonId> ids;
    for (std::size_t i = 0; i < n; ++i) ids.push_back(static_cast<gcs::DaemonId>(i));
    for (std::size_t i = 0; i < n; ++i) {
      // Reserve the node id on the network first; daemons register in order.
      daemons.push_back(nullptr);
    }
    for (std::size_t i = 0; i < n; ++i) {
      auto d = std::make_unique<gcs::Daemon>(ss::runtime::Env{&sched, &net, static_cast<gcs::DaemonId>(i)}, ids,
                                             timing, seed + i);
      const sim::NodeId node = net.add_node(d.get());
      (void)node;
      daemons[i] = std::move(d);
    }
    for (auto& d : daemons) d->start();
  }

  /// Fails the surrounding test if any protocol invariant was violated.
  ~Cluster() {
    checker.finalize();
    if (!checker.ok()) ADD_FAILURE() << checker.report();
  }

  /// Runs until every running daemon is operational in the same view
  /// containing exactly `expect` members (or the deadline passes).
  bool converge(std::size_t expect, sim::Time deadline_from_now = sim::kSecond) {
    const sim::Time deadline = sched.now() + deadline_from_now;
    return sched.run_until_condition([&] { return converged(expect); }, deadline);
  }

  bool converged(std::size_t expect) const {
    const gcs::Daemon* ref = nullptr;
    std::size_t running = 0;
    for (const auto& d : daemons) {
      if (!d->running()) continue;
      ++running;
      if (!d->is_operational()) return false;
      if (ref == nullptr) ref = d.get();
    }
    if (ref == nullptr) return expect == 0;
    // All *reachable-from-ref* daemons must share ref's view; daemons outside
    // it are in other components (fine for partition tests).
    if (ref->view_members().size() != expect) return false;
    for (const auto& d : daemons) {
      if (!d->running() || !d->is_operational()) continue;
      const auto& members = ref->view_members();
      if (std::find(members.begin(), members.end(), d->id()) != members.end()) {
        if (d->view() != ref->view()) return false;
      }
    }
    return running >= expect;
  }

  void run_for(sim::Time t) { sched.run_for(t); }
  bool run_until(const std::function<bool()>& pred, sim::Time timeout = sim::kSecond) {
    return sched.run_until_condition(pred, sched.now() + timeout);
  }

  sim::Scheduler sched;
  sim::SimNetwork net;
  /// Per-cluster metrics registry, current for the cluster's lifetime
  /// (tests assert on `metrics` without cross-test bleed).
  obs::MetricsRegistry metrics;
  /// Protocol invariant checker fed by every client of this cluster.
  check::InvariantChecker checker;
  std::vector<std::unique_ptr<gcs::Daemon>> daemons;

 private:
  check::TraceScope trace_scope_;
  obs::RegistryScope metrics_scope_;
};

}  // namespace ss::testing
