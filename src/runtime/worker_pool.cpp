#include "runtime/worker_pool.h"

#include <utility>

#include "obs/metrics.h"  // sanctioned exception: pool depth/inflight gauges
#include "runtime/compute.h"

namespace ss::runtime {

namespace {
thread_local int tl_worker_index = -1;
}  // namespace

WorkerPool::WorkerPool(std::size_t threads)
    : queue_depth_gauge_(obs::MetricsRegistry::current().gauge("runtime.pool.queue_depth")),
      inflight_gauge_(obs::MetricsRegistry::current().gauge("runtime.pool.inflight")) {
  const std::size_t n = threads == 0 ? 1 : threads;
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker(static_cast<int>(i)); });
  }
}

WorkerPool::~WorkerPool() {
  {
    util::MutexLock lk(mu_);
    stopping_ = true;
    cv_.notify_all();
  }
  for (std::thread& t : threads_) t.join();
}

int WorkerPool::current_worker() { return tl_worker_index; }

void WorkerPool::publish_gauges_locked() {
  // Queue pressure is the signal an operator watches to size the pool;
  // gauge writes are one relaxed store.
  queue_depth_gauge_.set(static_cast<double>(stats_.queue_depth));
  inflight_gauge_.set(static_cast<double>(stats_.inflight));
}

void WorkerPool::submit(std::function<void()> task) {
  util::MutexLock lk(mu_);
  queue_.push_back(std::move(task));
  ++stats_.submitted;
  stats_.queue_depth = queue_.size();
  if (stats_.queue_depth > stats_.max_queue_depth) {
    stats_.max_queue_depth = stats_.queue_depth;
  }
  publish_gauges_locked();
  cv_.notify_one();
}

void WorkerPool::drain() {
  util::MutexLock lk(mu_);
  while (!queue_.empty() || stats_.inflight != 0) idle_cv_.wait(mu_);
}

void WorkerPool::worker(int index) {
  tl_worker_index = index;
  util::MutexLock lk(mu_);
  for (;;) {
    while (queue_.empty() && !stopping_) cv_.wait(mu_);
    // Drain the queue even when stopping: completions posted to a stopped
    // event loop are dropped there, so finishing work is always safe and
    // never loses a continuation that could still be delivered.
    if (queue_.empty()) break;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    stats_.queue_depth = queue_.size();
    ++stats_.inflight;
    publish_gauges_locked();
    lk.unlock();
    task();
    lk.lock();
    --stats_.inflight;
    ++stats_.completed;
    publish_gauges_locked();
    if (queue_.empty() && stats_.inflight == 0) idle_cv_.notify_all();
  }
}

WorkerPool::Stats WorkerPool::stats() const {
  util::MutexLock lk(mu_);
  return stats_;
}

int current_compute_worker() { return WorkerPool::current_worker(); }

}  // namespace ss::runtime
