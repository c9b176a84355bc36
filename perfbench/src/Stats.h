//===- Stats.h - Sample statistics for the benchmark ------------*- C++-*-===//
//
// The few statistics the benchmark reports, kept in one place so the
// self-tests pin their exact definitions:
//
//  * median: the middle sample, or the mean of the two middle samples;
//  * tail percentile: nearest-rank, and only when at least ten samples
//    lie beyond it (a p90 needs 100 samples, a p99 needs 1000);
//  * failure share: failed operations over attempted ones.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave beyond it to be reported.
inline constexpr int64_t kMinTailSamples = 10;

/// Median of \p Samples (NaN when empty).
double median(std::vector<double> Samples);

/// Nearest-rank \p Pct percentile (0 < Pct < 100): the sample at 1-based
/// rank ceil(Pct/100 * n) of the sorted samples. Empty when fewer than
/// kMinTailSamples samples lie beyond that rank.
std::optional<double> tailPercentile(std::vector<double> Samples, double Pct);

/// How many samples lie beyond the nearest-rank \p Pct percentile of
/// \p N samples.
int64_t samplesBeyond(int64_t N, double Pct);

/// Failed operations as a share of those attempted (0 when none was).
double failureShare(int64_t Attempted, int64_t Failed);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
