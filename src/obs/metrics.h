// MetricsRegistry: named counters, gauges and fixed-bucket histograms with
// label scoping.
//
// Every protocol layer reports through one registry instead of ad-hoc
// per-class counters. Metrics follow the naming convention
// `layer.object.metric` (e.g. "gcs.daemon.views_installed") and carry a
// label set identifying the reporting entity ({daemon=3}, {member=2:1},
// {group=chat}).
//
// One store per counter. A Counter is owned by the component that counts
// (a Daemon, a LinkManager, one group of a SecureGroupClient, ...), and the
// component's accessors read it directly. At construction the counter is
// *listed* in the registry that is current then, under its (name, labels)
// key. A series — everything listed under one key — reads as the sum of
// its live counters plus the final values of destroyed ones, which a
// counter folds in when it dies. So a series is cumulative over the
// registry's lifetime, while each accessor counts only its own events.
//
// Counters bind once and are never re-resolved, so a registry must outlive
// every component built while it was current: the test Cluster fixture,
// bench_msg_path and perfbench declare their registry before the
// components, and the ASan stage reports a violation as a use-after-free.
// Gauges and histograms are owned by the registry and found or created by
// key; a component resolves the ones it uses once.
//
// The current registry is a process-wide pointer with an RAII scope
// (RegistryScope), so each test cluster or benchmark epoch lists its
// components in a fresh registry and nothing bleeds between epochs.
//
// Thread-safety: the simulation is single-threaded, but the realtime
// backend runs N event-loop lanes plus a crypto worker pool, and all of
// them report here. Counters and gauges are relaxed atomics (an increment
// is one atomic add on the owner's counter); histograms and the registry
// maps take a util::Mutex, which is uncontended in the serial case.
// Listing, unlisting and reading a series take the registry mutex, so a
// reader never sees a counter that is being destroyed.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_safety.h"

namespace ss::obs {

/// Metric labels: (key, value) pairs, e.g. {{"daemon", "3"}}. Order given
/// by the caller is irrelevant; the registry canonicalizes by sorting.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter;

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-bucket histogram. `bounds` are inclusive upper bucket bounds in
/// ascending order; values above the last bound land in an overflow bucket.
/// Tracks exact min/max/sum/count alongside the buckets, so percentile
/// estimates are exact at the tails and linearly interpolated inside the
/// bucket that crosses the requested rank.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) SS_EXCLUDES(mu_);

  std::uint64_t count() const SS_EXCLUDES(mu_);
  double sum() const SS_EXCLUDES(mu_);
  double mean() const SS_EXCLUDES(mu_);
  double min() const SS_EXCLUDES(mu_);
  double max() const SS_EXCLUDES(mu_);

  /// Percentile estimate for p in [0, 100]. p=0 returns min, p=100 max.
  double percentile(double p) const SS_EXCLUDES(mu_);

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  /// Returned by value: a coherent snapshot under the histogram lock.
  std::vector<std::uint64_t> buckets() const SS_EXCLUDES(mu_);

 private:
  double percentile_locked(double p) const SS_REQUIRES(mu_);

  const std::vector<double> bounds_;  // immutable after construction
  mutable util::Mutex mu_;
  std::vector<std::uint64_t> buckets_ SS_GUARDED_BY(mu_);
  std::uint64_t count_ SS_GUARDED_BY(mu_) = 0;
  double sum_ SS_GUARDED_BY(mu_) = 0;
  double min_ SS_GUARDED_BY(mu_) = 0;
  double max_ SS_GUARDED_BY(mu_) = 0;
};

/// Default bucket bounds for latency histograms, in microseconds: roughly
/// logarithmic from 10us to 100s (virtual time; sim ticks are us).
const std::vector<double>& latency_buckets_us();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the gauge / histogram for (name, labels). References
  /// stay valid for the registry's lifetime (node-stable storage), so a
  /// resolved handle can be used lock-free from any thread.
  Gauge& gauge(const std::string& name, const Labels& labels = {}) SS_EXCLUDES(mu_);
  Histogram& histogram(const std::string& name, const std::vector<double>& bounds,
                       const Labels& labels = {}) SS_EXCLUDES(mu_);

  /// Value of a counter series: its live counters plus the final values of
  /// destroyed ones; 0 if nothing was ever listed under the key.
  std::uint64_t counter_value(const std::string& name, const Labels& labels = {}) const
      SS_EXCLUDES(mu_);
  /// Sums a counter across every label set it was listed under.
  std::uint64_t counter_sum(const std::string& name) const SS_EXCLUDES(mu_);

  /// One "name{k=v,...} value" line per metric, sorted by key; histograms
  /// render count/sum/min/p50/p99/max. For humans and golden tests.
  std::string render_text() const SS_EXCLUDES(mu_);

  /// The current registry (a process default when no scope is active).
  static MetricsRegistry& current();
  /// Installs `r` as current (nullptr restores the process default);
  /// returns the previous pointer (nullptr if it was the default).
  static MetricsRegistry* set_current(MetricsRegistry* r);

 private:
  friend class Counter;

  /// Everything listed under one counter key.
  struct Series {
    std::uint64_t retired = 0;  // final values of destroyed counters
    std::vector<const Counter*> live;
    std::uint64_t value() const;
  };

  static std::string key_of(const std::string& name, const Labels& labels);
  Series& list(const Counter& c, const std::string& name, const Labels& labels)
      SS_EXCLUDES(mu_);
  void unlist(const Counter& c, Series& series) SS_EXCLUDES(mu_);

  mutable util::Mutex mu_;  // guards the lookup maps and the series lists
  std::map<std::string, Series> counters_ SS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ SS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ SS_GUARDED_BY(mu_);

  static std::atomic<MetricsRegistry*> current_;
};

/// A monotonic count, owned by the component that counts and listed in a
/// registry for its whole lifetime (see the file comment).
class Counter {
 public:
  /// Lists the counter in MetricsRegistry::current() under (name, labels).
  explicit Counter(const std::string& name, const Labels& labels = {});
  /// Lists the counter in `registry`, which must outlive it.
  Counter(MetricsRegistry& registry, const std::string& name, const Labels& labels = {});
  /// Folds the final value into the series and unlists the counter.
  ~Counter();

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};  // initialized before the counter is listed
  MetricsRegistry& registry_;
  MetricsRegistry::Series& series_;
};

/// RAII: installs a registry as current; restores the previous one on
/// destruction. Used by the test cluster fixture and the benchmarks, so the
/// components each builds are listed in its own registry.
class RegistryScope {
 public:
  explicit RegistryScope(MetricsRegistry& r);
  ~RegistryScope();

  RegistryScope(const RegistryScope&) = delete;
  RegistryScope& operator=(const RegistryScope&) = delete;

 private:
  MetricsRegistry* prev_;
};

}  // namespace ss::obs
