#include "stats/kde.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/status.h"
#include "stats/bandwidth.h"

namespace otfair::stats {

using common::Result;
using common::Status;

namespace {
/// Largest |z| at which exp(-z^2 / 2) is still a normal double
/// (exp(-703.1) ~ 5e-306 > DBL_MIN ~ 2.2e-308): the binned kernel keeps
/// every lag up to here, so it drops no term the exact sum keeps.
constexpr double kMaxKernelZ = 37.5;
}  // namespace

Result<GaussianKde> GaussianKde::Fit(std::vector<double> samples, double bandwidth) {
  if (samples.empty()) return Status::InvalidArgument("KDE needs at least one sample");
  if (!(bandwidth > 0.0)) return Status::InvalidArgument("bandwidth must be positive");
  for (double x : samples) {
    if (!std::isfinite(x)) return Status::InvalidArgument("KDE samples must be finite");
  }
  return GaussianKde(std::move(samples), bandwidth);
}

Result<GaussianKde> GaussianKde::FitSilverman(std::vector<double> samples) {
  if (samples.empty()) return Status::InvalidArgument("KDE needs at least one sample");
  const double h = SilvermanBandwidth(samples);
  return Fit(std::move(samples), h);
}

double GaussianKde::Evaluate(double x) const {
  const double inv_h = 1.0 / bandwidth_;
  double acc = 0.0;
  for (double xi : samples_) {
    const double z = (x - xi) * inv_h;
    acc += std::exp(-0.5 * z * z);
  }
  const double norm =
      1.0 / (static_cast<double>(samples_.size()) * bandwidth_ * std::sqrt(2.0 * std::numbers::pi));
  return acc * norm;
}

std::vector<double> GaussianKde::EvaluateOnGrid(const std::vector<double>& grid) const {
  std::vector<double> out(grid.size());
  for (size_t q = 0; q < grid.size(); ++q) out[q] = Evaluate(grid[q]);
  return out;
}

Result<std::vector<double>> GaussianKde::PmfOnGrid(const std::vector<double>& grid) const {
  if (grid.empty()) return Status::InvalidArgument("empty grid");
  std::vector<double> pmf = EvaluateOnGrid(grid);
  double total = 0.0;
  for (double p : pmf) total += p;
  if (!(total > 0.0))
    return Status::InvalidArgument("KDE mass underflowed on grid (grid outside data range?)");
  for (double& p : pmf) p /= total;
  return pmf;
}

Result<std::vector<double>> GaussianKde::BinnedPmfOnUniformGrid(double lo, double hi,
                                                                size_t n) const {
  if (n < 2 || !(hi > lo)) return Status::InvalidArgument("binned KDE needs n >= 2 and hi > lo");
  const double step = (hi - lo) / static_cast<double>(n - 1);

  // (1) Linear binning: sample x at t = (x - lo) / step grid steps splits
  // its mass (1 - f, f) between grid points j = floor(t) and j + 1.
  std::vector<double> weights(n, 0.0);
  const double inv_step = 1.0 / step;
  for (double x : samples_) {
    if (!(x >= lo && x <= hi)) return Status::InvalidArgument("binned KDE sample outside the grid");
    const double t = (x - lo) * inv_step;
    const size_t j = std::min(static_cast<size_t>(t), n - 2);
    const double f = std::min(1.0, t - static_cast<double>(j));
    weights[j] += 1.0 - f;
    weights[j + 1] += f;
  }

  // (2) The kernel at lags -max_lag..max_lag, one exp per lag.
  const double z_step = step / bandwidth_;
  const double lags = kMaxKernelZ / z_step;
  const size_t max_lag =
      lags >= static_cast<double>(n - 1) ? n - 1 : static_cast<size_t>(lags);
  std::vector<double> kernel(2 * max_lag + 1);
  for (size_t l = 0; l <= max_lag; ++l) {
    const double z = static_cast<double>(l) * z_step;
    kernel[max_lag + l] = kernel[max_lag - l] = std::exp(-0.5 * z * z);
  }

  // (3) Discrete convolution: each non-empty bin adds its weight times
  // the kernel over one contiguous window of the grid.
  std::vector<double> pmf(n, 0.0);
  for (size_t j = 0; j < n; ++j) {
    const double w = weights[j];
    if (w == 0.0) continue;
    const size_t q_lo = j > max_lag ? j - max_lag : 0;
    const size_t q_end = std::min(n, j + max_lag + 1);
    const double* k = kernel.data() + (max_lag + q_lo - j);
    double* out = pmf.data() + q_lo;
    for (size_t i = 0; i < q_end - q_lo; ++i) out[i] += w * k[i];
  }

  // (4) Normalize.
  double total = 0.0;
  for (double p : pmf) total += p;
  if (!(total > 0.0)) return Status::InvalidArgument("binned KDE mass underflowed on grid");
  for (double& p : pmf) p /= total;
  return pmf;
}

}  // namespace otfair::stats
