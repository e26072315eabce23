// Discrete-event backend for runtime::Env.
//
// Thin by construction: sim::Scheduler *is* a runtime::Clock and
// sim::SimNetwork *is* a runtime::Transport (they implement the interfaces
// directly), so this class only owns the pair, mints per-node Envs, and
// offers the same driving surface as RealtimeEnv for backend-agnostic
// tests. Running the stack through a SimEnv is bit-for-bit identical to
// the pre-runtime wiring: the same scheduler allocates the same event ids
// in the same order for a fixed seed.
//
// Harnesses that need the full fault-injection surface (partitions, link
// models, wiretaps) reach through scheduler()/network(); protocol code
// never does.
#pragma once

#include <cstdint>
#include <functional>

#include "runtime/env.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace ss::runtime {

class SimEnv {
 public:
  explicit SimEnv(std::uint64_t seed = 42, sim::LinkModel link = {})
      : net_(sched_, seed, link) {}

  SimEnv(const SimEnv&) = delete;
  SimEnv& operator=(const SimEnv&) = delete;

  /// Reserves the next transport address (bind a sink before packets flow;
  /// unbound addresses drop traffic).
  NodeId add_node() { return net_.add_node(nullptr); }

  /// The Env for a node. The id need not be allocated yet: harnesses that
  /// construct actors before registering them (the historical order) mint
  /// the Env first and bind afterwards. Compute is the default inline
  /// executor: offloaded jobs run synchronously at the call site, so the
  /// simulation stays single-threaded, deterministic and bit-identical.
  Env env(NodeId self) { return Env{&sched_, &net_, self}; }

  Clock& clock() { return sched_; }
  Transport& transport() { return net_; }

  sim::Scheduler& scheduler() { return sched_; }
  sim::SimNetwork& network() { return net_; }

  // --- driving (mirrors RealtimeEnv so contract tests run on both) --------
  /// Runs the simulation until pred() holds or `timeout` of virtual time
  /// passes. Returns pred()'s final value. pred is evaluated before any
  /// event runs, so an already-true condition returns immediately.
  bool wait_until(const std::function<bool()>& pred, Time timeout) {
    return sched_.run_until_condition(pred, sched_.now() + timeout);
  }

  /// Advances virtual time by d, running due events.
  void sleep_for(Time d) { sched_.run_for(d); }

  /// Runs fn "on the loop": the simulator is single-threaded, so this is a
  /// plain call. Exists so scenario code can be written once for both
  /// backends.
  void run_on_loop(const std::function<void()>& fn) { fn(); }

 private:
  sim::Scheduler sched_;
  sim::SimNetwork net_;
};

}  // namespace ss::runtime
