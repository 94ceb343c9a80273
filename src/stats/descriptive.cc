#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace otfair::stats {

double Mean(const std::vector<double>& xs) {
  OTFAIR_CHECK(!xs.empty());
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  OTFAIR_CHECK(!xs.empty());
  if (xs.size() == 1) return 0.0;
  const double m = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double StdDev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double Min(const std::vector<double>& xs) {
  OTFAIR_CHECK(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double Max(const std::vector<double>& xs) {
  OTFAIR_CHECK(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

namespace {
/// Linear-interpolated q-quantile of an ascending, non-empty sample.
double SortedQuantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::vector<double> SortedCopy(const std::vector<double>& xs) {
  std::vector<double> sorted(xs);
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}
}  // namespace

double Quantile(const std::vector<double>& xs, double q) {
  OTFAIR_CHECK(!xs.empty());
  OTFAIR_CHECK(q >= 0.0 && q <= 1.0);
  return SortedQuantile(SortedCopy(xs), q);
}

double Median(const std::vector<double>& xs) { return Quantile(xs, 0.5); }

double Iqr(const std::vector<double>& xs) {
  OTFAIR_CHECK(!xs.empty());
  // One sort serves both quartiles (Silverman's rule calls this per KDE).
  const std::vector<double> sorted = SortedCopy(xs);
  return SortedQuantile(sorted, 0.75) - SortedQuantile(sorted, 0.25);
}

MeanStd ComputeMeanStd(const std::vector<double>& xs) {
  MeanStd out;
  out.mean = Mean(xs);
  out.std = StdDev(xs);
  return out;
}

}  // namespace otfair::stats
