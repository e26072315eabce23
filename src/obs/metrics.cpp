#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace ss::obs {

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  util::MutexLock lock(mu_);
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())] += 1;
}

std::uint64_t Histogram::count() const {
  util::MutexLock lock(mu_);
  return count_;
}

double Histogram::sum() const {
  util::MutexLock lock(mu_);
  return sum_;
}

double Histogram::mean() const {
  util::MutexLock lock(mu_);
  return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
}

double Histogram::min() const {
  util::MutexLock lock(mu_);
  return count_ == 0 ? 0 : min_;
}

double Histogram::max() const {
  util::MutexLock lock(mu_);
  return count_ == 0 ? 0 : max_;
}

std::vector<std::uint64_t> Histogram::buckets() const {
  util::MutexLock lock(mu_);
  return buckets_;
}

double Histogram::percentile(double p) const {
  util::MutexLock lock(mu_);
  return percentile_locked(p);
}

double Histogram::percentile_locked(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0) return min_;
  if (p >= 100) return max_;
  const double rank = p / 100.0 * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const std::uint64_t next = cum + buckets_[i];
    if (static_cast<double>(next) >= rank) {
      // Interpolate within bucket i, clamped to the observed range so the
      // first and last populated buckets do not report impossible values.
      double lo = i == 0 ? min_ : bounds_[i - 1];
      double hi = i < bounds_.size() ? bounds_[i] : max_;
      lo = std::max(lo, min_);
      hi = std::min(hi, max_);
      if (hi < lo) hi = lo;
      const double frac = (rank - static_cast<double>(cum)) /
                          static_cast<double>(buckets_[i]);
      return lo + (hi - lo) * frac;
    }
    cum = next;
  }
  return max_;
}

const std::vector<double>& latency_buckets_us() {
  static const std::vector<double> kBounds = {
      10,      20,      50,      100,      200,      500,       1000,      2000,
      5000,    10000,   20000,   50000,    100000,   200000,    500000,    1000000,
      2000000, 5000000, 10000000, 20000000, 50000000, 100000000};
  return kBounds;
}

// --- MetricsRegistry ---------------------------------------------------------

std::atomic<MetricsRegistry*> MetricsRegistry::current_{nullptr};

namespace {
MetricsRegistry& default_registry() {
  static MetricsRegistry reg;
  return reg;
}
}  // namespace

MetricsRegistry::~MetricsRegistry() {
  // A scope should have restored the previous registry already; if someone
  // destroys the current registry without popping its scope, fall back to
  // the default rather than leaving a dangling current pointer.
  MetricsRegistry* self = this;
  current_.compare_exchange_strong(self, nullptr, std::memory_order_acq_rel);
}

std::string MetricsRegistry::key_of(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i != 0) key += ',';
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

std::uint64_t MetricsRegistry::Series::value() const {
  std::uint64_t total = retired;
  for (const Counter* c : live) total += c->value();
  return total;
}

MetricsRegistry::Series& MetricsRegistry::list(const Counter& c, const std::string& name,
                                               const Labels& labels) {
  util::MutexLock lock(mu_);
  Series& series = counters_[key_of(name, labels)];
  series.live.push_back(&c);
  return series;
}

void MetricsRegistry::unlist(const Counter& c, Series& series) {
  util::MutexLock lock(mu_);
  series.retired += c.value();
  series.live.erase(std::find(series.live.begin(), series.live.end(), &c));
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  util::MutexLock lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[key_of(name, labels)];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<double>& bounds,
                                      const Labels& labels) {
  util::MutexLock lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[key_of(name, labels)];
  if (!slot) slot = std::make_unique<Histogram>(bounds);
  return *slot;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name,
                                             const Labels& labels) const {
  util::MutexLock lock(mu_);
  const auto it = counters_.find(key_of(name, labels));
  return it == counters_.end() ? 0 : it->second.value();
}

std::uint64_t MetricsRegistry::counter_sum(const std::string& name) const {
  util::MutexLock lock(mu_);
  std::uint64_t total = 0;
  const std::string prefix = name + "{";
  for (const auto& [key, series] : counters_) {
    if (key == name || key.compare(0, prefix.size(), prefix) == 0) total += series.value();
  }
  return total;
}

std::string MetricsRegistry::render_text() const {
  util::MutexLock lock(mu_);
  std::string out;
  char buf[160];
  for (const auto& [key, series] : counters_) {
    std::snprintf(buf, sizeof buf, " %llu\n",
                  static_cast<unsigned long long>(series.value()));
    out += key;
    out += buf;
  }
  for (const auto& [key, g] : gauges_) {
    std::snprintf(buf, sizeof buf, " %g\n", g->value());
    out += key;
    out += buf;
  }
  for (const auto& [key, h] : histograms_) {
    std::snprintf(buf, sizeof buf,
                  " count=%llu sum=%g min=%g p50=%g p99=%g max=%g\n",
                  static_cast<unsigned long long>(h->count()), h->sum(), h->min(),
                  h->percentile(50), h->percentile(99), h->max());
    out += key;
    out += buf;
  }
  return out;
}

MetricsRegistry& MetricsRegistry::current() {
  MetricsRegistry* cur = current_.load(std::memory_order_acquire);
  return cur != nullptr ? *cur : default_registry();
}

MetricsRegistry* MetricsRegistry::set_current(MetricsRegistry* r) {
  return current_.exchange(r, std::memory_order_acq_rel);
}

// --- Counter -----------------------------------------------------------------

Counter::Counter(const std::string& name, const Labels& labels)
    : Counter(MetricsRegistry::current(), name, labels) {}

Counter::Counter(MetricsRegistry& registry, const std::string& name, const Labels& labels)
    : registry_(registry), series_(registry.list(*this, name, labels)) {}

Counter::~Counter() { registry_.unlist(*this, series_); }

// --- RegistryScope -----------------------------------------------------------

RegistryScope::RegistryScope(MetricsRegistry& r) : prev_(MetricsRegistry::set_current(&r)) {}

RegistryScope::~RegistryScope() { MetricsRegistry::set_current(prev_); }

}  // namespace ss::obs
