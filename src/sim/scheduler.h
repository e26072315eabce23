// Discrete-event scheduler: the virtual clock the whole stack runs on.
//
// Everything above the simulated network (daemons, clients, key agreement)
// is event-driven: actors schedule callbacks, the scheduler executes them in
// timestamp order. Time is virtual microseconds, so tests and benches are
// deterministic and partitions/failures can be injected at exact instants.
//
// Scheduler implements runtime::Clock, so it plugs into runtime::Env
// directly — the protocol stack depends only on the Clock interface and
// this backend preserves the historical event ordering bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>

#include "runtime/clock.h"

namespace ss::sim {

/// Virtual time in microseconds since simulation start.
using Time = runtime::Time;

using runtime::kMicrosecond;
using runtime::kMillisecond;
using runtime::kSecond;

using EventFn = runtime::TimerFn;
using EventId = runtime::TimerId;

class Scheduler : public runtime::Clock {
 public:
  Time now() const override { return now_; }

  /// Schedules fn at absolute virtual time t (clamped to now).
  EventId at(Time t, EventFn fn) override;

  /// Cancels a pending event; no-op if already fired or cancelled.
  void cancel(EventId id) override;

  /// Runs one event; returns false if the queue is empty.
  bool step();

  /// Runs all events with time <= t, then advances the clock to t.
  void run_until(Time t);

  /// Runs for `d` of virtual time from now.
  void run_for(Time d) { run_until(now_ + d); }

  /// Runs events until pred() holds or the deadline passes or the queue
  /// drains. Returns pred()'s final value. pred is evaluated before any
  /// event executes — an already-true condition returns immediately with
  /// no side effects — and again between events.
  bool run_until_condition(const std::function<bool()>& pred, Time deadline);

  /// Drains the queue completely (use with care: periodic timers never end).
  void run();

  std::size_t pending() const { return events_.size() - cancelled_; }

  /// Advances the clock without running events (used to charge measured
  /// CPU time of cryptographic work into virtual time; see
  /// runtime::Clock::charge_time).
  void charge_time(Time d) override { now_ += d; }

 private:
  struct Event {
    Time time;
    EventId id;
    EventFn fn;
    bool cancelled = false;
  };

  // Keyed by (time, id): id is monotonic, giving deterministic FIFO order
  // among events scheduled for the same instant.
  std::map<std::pair<Time, EventId>, Event> events_;
  Time now_ = 0;
  EventId next_id_ = 1;
  std::size_t cancelled_ = 0;
};

}  // namespace ss::sim
