// Two stopwatches, one per clock of the paper's methodology.
//
// CpuStopwatch measures real thread CPU time: the cost of cryptographic
// computation (Figure 4, Tables 2-4). SimStopwatch measures virtual
// scheduler time: end-to-end protocol latency including network rounds
// (Figure 3). Benchmarks and instrumentation pick the clock that matches
// what they claim to measure; mixing them up is the classic error this
// split prevents.
#pragma once

#include <cstdint>

#include "runtime/clock.h"
#include "util/cpu_time.h"

namespace ss::obs {

/// Elapsed real CPU time of the current thread since construction/restart.
class CpuStopwatch {
 public:
  CpuStopwatch() : start_(util::cpu_now_seconds()) {}

  void restart() { start_ = util::cpu_now_seconds(); }

  double seconds() const { return util::cpu_now_seconds() - start_; }

  std::uint64_t micros() const {
    const double sec = seconds();
    return sec <= 0 ? 0 : static_cast<std::uint64_t>(sec * 1e6);
  }

 private:
  double start_;
};

/// Elapsed protocol time since construction/restart, measured on any
/// runtime::Clock — virtual time under the sim backend (sim::Scheduler
/// IS-A Clock), wall-clock under realtime. Header-only; obs links neither
/// ss_sim nor ss_runtime.
class SimStopwatch {
 public:
  explicit SimStopwatch(const runtime::Clock& clock) : clock_(clock), start_(clock.now()) {}

  void restart() { start_ = clock_.now(); }

  runtime::Time elapsed_us() const { return clock_.now() - start_; }

 private:
  const runtime::Clock& clock_;
  runtime::Time start_;
};

}  // namespace ss::obs
