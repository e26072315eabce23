// Statistics rules of the benchmark, kept apart so the self-test can pin
// them down.
//
// Percentile rule: a timing is reported as its median and the highest
// percentile that still has at least ten samples beyond it. A requested
// percentile with fewer than ten samples beyond it is *flagged*: the value
// is withheld, because a tail estimated from a handful of samples moves
// from run to run on noise alone.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// True when percentile `p` of `n` samples has at least ten samples beyond it.
bool percentile_supported(std::size_t n, double p);

/// Linear-interpolated percentile of a sample set (copied and sorted);
/// nullopt when the set is empty.
std::optional<double> raw_percentile(std::vector<double> samples, double p);

/// Percentile under the rule above: nullopt (flagged) when the tail is too
/// thin to report.
std::optional<double> percentile(const std::vector<double>& samples, double p);

/// Median of a non-empty set (nullopt for an empty one). Exempt from the
/// tail rule: it is the centre, not a tail.
std::optional<double> median(const std::vector<double>& samples);

/// Per-view cost growth: `cumulative` holds a monotone cost reading (CPU
/// seconds) taken at 0, 1/10, ..., 10/10 of a fixed message count, 11
/// readings. Returns the cost of the last tenth divided by the cost of the
/// first tenth; nullopt for the wrong number of readings or a first tenth
/// that cost nothing.
std::optional<double> decile_growth(const std::vector<double>& cumulative);

}  // namespace perfbench
