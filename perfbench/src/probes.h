// Outside-in probes: process CPU, standalone crypto timings, and the
// lane-wait probe. None of them touch the stack's internals.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

/// Process CPU seconds, user + system, all threads.
double process_cpu_seconds();

/// Standalone crypto costs, median of repeated calls.
struct CryptoProbe {
  double seal_64_us = 0;
  double open_64_us = 0;
  double seal_8k_us = 0;
  double open_8k_us = 0;
  double modexp_us = 0;  // one ss512 exponentiation through DhGroup
};
CryptoProbe probe_crypto(std::uint64_t seed);

/// Lane-wait probe: schedules no-op timers on each lane at a known due
/// time and records how late each one ran. `schedule(lane, due_us, fn)`
/// posts fn to run at env time `due_us`; `now_us()` reads env time and must
/// stay callable as long as the lanes run. The recorded waits live in
/// shared state, so a probe still queued on a lane never outlives them.
class LaneProbe {
 public:
  using ScheduleFn = std::function<void(std::size_t, std::int64_t, std::function<void()>)>;
  LaneProbe(std::size_t lanes, ScheduleFn schedule, std::function<std::int64_t()> now_us);

  /// Called from the benchmark thread's loop; fires one probe per lane
  /// every kPeriodUs of env time.
  void tick();
  std::vector<double> waits_us() const;

 private:
  struct Waits {
    std::mutex mu;
    std::vector<double> us;
  };
  static constexpr std::int64_t kPeriodUs = 4000;
  static constexpr std::int64_t kLeadUs = 1000;

  std::size_t lanes_;
  ScheduleFn schedule_;
  std::function<std::int64_t()> now_us_;
  std::int64_t next_ = 0;
  std::shared_ptr<Waits> waits_ = std::make_shared<Waits>();
};

}  // namespace perfbench
