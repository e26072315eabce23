// Thread CPU-time source: the single process-wide definition.
//
// The paper's measurements use two clocks: virtual (simulated) time for
// protocol latency and real thread CPU time for cryptographic cost. Every
// layer that times computation — runtime::ComputeTimer, crypto::ComputeJob,
// the obs stopwatches, the bench drivers — reads this one function so they
// all measure the same thing. It lives in util (the bottom layer) so both
// the crypto and runtime layers can reach it without widening the layering
// DAG.
#pragma once

#include <ctime>

namespace ss::util {

/// Thread CPU seconds (getrusage-equivalent, as the paper measured).
/// Valid on any thread: a worker pool thread measures its own CPU time.
inline double cpu_now_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace ss::util
