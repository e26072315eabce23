// Runtime clock abstraction: the timer service every protocol layer runs on.
//
// The paper's Secure Spread ran on real machines; our reproduction grew up
// on a discrete-event simulator. This interface is the seam between the
// two: protocol code (gcs daemons, links, failure detection, flush, secure
// clients) schedules callbacks against a Clock and never learns whether
// time is virtual (sim::Scheduler) or wall-clock (runtime::RealtimeEnv).
//
// Contract (identical across backends, enforced by runtime_env_test):
//   - now() is monotonic, in microseconds.
//   - at(t, fn) clamps t to now(); callbacks with equal deadlines fire in
//     the order they were scheduled (TimerIds are monotonic).
//   - cancel(id) of a pending timer prevents it from firing; cancel of an
//     already-fired, currently-firing, or unknown id is a harmless no-op.
//   - Callbacks never run re-entrantly inside at()/after()/cancel(); they
//     run from the backend's event loop.
#pragma once

#include <cstdint>
#include <functional>

namespace ss::runtime {

/// Time in microseconds. Virtual (since simulation start) under the sim
/// backend, monotonic wall clock (since env creation) under realtime.
using Time = std::uint64_t;

constexpr Time kMicrosecond = 1;
constexpr Time kMillisecond = 1000;
constexpr Time kSecond = 1000 * 1000;

using TimerId = std::uint64_t;
using TimerFn = std::function<void()>;

class Clock {
 public:
  virtual ~Clock() = default;

  virtual Time now() const = 0;

  /// Schedules fn at absolute time t (clamped to now). Returns a handle
  /// usable with cancel().
  virtual TimerId at(Time t, TimerFn fn) = 0;

  /// Schedules fn `delay` after now.
  TimerId after(Time delay, TimerFn fn) { return at(now() + delay, std::move(fn)); }

  /// Cancels a pending timer; no-op if already fired or cancelled.
  virtual void cancel(TimerId id) = 0;

  /// Accounts measured CPU time of a computation into the clock. The sim
  /// backend advances virtual time by d (computation is otherwise free at
  /// one instant); the realtime backend ignores it (the wall clock already
  /// advanced while the computation ran). The secure layer charges each
  /// key-agreement call's crypto::ComputeJob CPU time this way when
  /// asked to (SecureGroupClient's charge_crypto_time).
  virtual void charge_time(Time d) = 0;
};

}  // namespace ss::runtime
