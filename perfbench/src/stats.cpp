#include "stats.h"

#include <algorithm>

namespace perfbench {

bool percentile_supported(std::size_t n, double p) {
  // Samples beyond p; the epsilon keeps n = 100 at p90 (exactly ten beyond)
  // supported despite floating-point rounding.
  const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
  return beyond + 1e-9 >= 10.0;
}

std::optional<double> raw_percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::optional<double> percentile(const std::vector<double>& samples, double p) {
  if (!percentile_supported(samples.size(), p)) return std::nullopt;
  return raw_percentile(samples, p);
}

std::optional<double> median(const std::vector<double>& samples) {
  return raw_percentile(samples, 50);
}

std::optional<double> decile_growth(const std::vector<double>& cumulative) {
  if (cumulative.size() != 11) return std::nullopt;
  const double first = cumulative[1] - cumulative[0];
  const double last = cumulative[10] - cumulative[9];
  if (first <= 0) return std::nullopt;
  return last / first;
}

}  // namespace perfbench
