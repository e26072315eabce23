// runtime::WorkerPool — the crypto offload pool behind runtime::Compute.
//
// A fixed set of worker threads draining a FIFO task queue. Tasks are the
// `work` half of a Compute offload: self-contained closures (typically a
// crypto::ComputeJob plus a completion post) that never touch protocol
// state, so workers need no knowledge of lanes or actors.
//
// This class and RealtimeEnv are the tree's only std::thread users
// (sslint `raw-thread` allows src/runtime only), and constructing a
// WorkerPool outside runtime/tests/bench is itself banned (`worker-pool`
// rule): protocol layers reach parallelism exclusively through the
// Compute seam, which keeps the sim path deterministic by construction.
//
// Shutdown: the destructor finishes every queued task before joining —
// completions posted to an already-stopped event loop are dropped with
// that loop's timers, so draining is always safe.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_safety.h"

namespace ss::obs {
class Gauge;
}  // namespace ss::obs

namespace ss::runtime {

class WorkerPool {
 public:
  /// Starts `threads` workers (clamped to >= 1). The runtime.pool gauges
  /// live in the metrics registry current at construction, which must
  /// outlive the pool.
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues a task; any worker may run it. Safe from any thread,
  /// including a worker (a completion may submit follow-up work).
  void submit(std::function<void()> task) SS_EXCLUDES(mu_);

  /// Blocks the calling thread until the queue is empty and no task is
  /// running. Quiesce for tests/benchmarks; not for protocol use.
  void drain() SS_EXCLUDES(mu_);

  std::size_t threads() const { return threads_.size(); }

  /// Index of the pool worker running the calling thread, -1 elsewhere.
  /// Lets instrumentation attribute compute to a worker lane.
  static int current_worker();

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::size_t queue_depth = 0;      // tasks waiting
    std::size_t inflight = 0;         // tasks executing right now
    std::size_t max_queue_depth = 0;  // high-water mark
  };
  Stats stats() const SS_EXCLUDES(mu_);

 private:
  void worker(int index) SS_EXCLUDES(mu_);
  void publish_gauges_locked() SS_REQUIRES(mu_);

  // runtime.pool.queue_depth / .inflight, resolved once at construction.
  obs::Gauge& queue_depth_gauge_;
  obs::Gauge& inflight_gauge_;
  mutable util::Mutex mu_;
  util::CondVar cv_;        // workers wait for tasks / stop
  util::CondVar idle_cv_;   // drain() waits for quiescence
  std::deque<std::function<void()>> queue_ SS_GUARDED_BY(mu_);
  Stats stats_ SS_GUARDED_BY(mu_);
  bool stopping_ SS_GUARDED_BY(mu_) = false;
  // Written once in the constructor before workers can observe them,
  // joined in the destructor after stopping_ handshake; join runs unlocked.
  std::vector<std::thread> threads_;
};

}  // namespace ss::runtime
