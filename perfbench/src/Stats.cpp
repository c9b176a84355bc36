//===- Stats.cpp ----------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace perfbench;

double perfbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return std::numeric_limits<double>::quiet_NaN();
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  if (N % 2)
    return Samples[N / 2];
  return 0.5 * (Samples[N / 2 - 1] + Samples[N / 2]);
}

/// 1-based nearest rank of the \p Pct percentile among \p N samples.
static int64_t nearestRank(int64_t N, double Pct) {
  double Rank = std::ceil(Pct / 100.0 * double(N) - 1e-9);
  return std::clamp<int64_t>(int64_t(Rank), 1, std::max<int64_t>(N, 1));
}

int64_t perfbench::samplesBeyond(int64_t N, double Pct) {
  if (N <= 0)
    return 0;
  return N - nearestRank(N, Pct);
}

std::optional<double> perfbench::tailPercentile(std::vector<double> Samples,
                                                double Pct) {
  int64_t N = int64_t(Samples.size());
  if (N == 0 || !(Pct > 0 && Pct < 100) ||
      samplesBeyond(N, Pct) < kMinTailSamples)
    return std::nullopt;
  std::sort(Samples.begin(), Samples.end());
  return Samples[size_t(nearestRank(N, Pct) - 1)];
}

double perfbench::failureShare(int64_t Attempted, int64_t Failed) {
  return Attempted > 0 ? double(Failed) / double(Attempted) : 0.0;
}
