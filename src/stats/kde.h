#ifndef OTFAIR_STATS_KDE_H_
#define OTFAIR_STATS_KDE_H_

#include <vector>

#include "common/result.h"

namespace otfair::stats {

/// One-dimensional Gaussian kernel density estimator (paper Eqs. 11-12):
///
///     f_hat(x) = (1 / (n h)) * sum_i K((x - x_i) / h),  K = standard normal
///
/// Used to interpolate the empirical (u, s)-conditional feature marginals
/// onto the shared support Q during repair design (Algorithm 1 line 8).
class GaussianKde {
 public:
  /// Fits a KDE to `samples` with explicit bandwidth h > 0.
  static common::Result<GaussianKde> Fit(std::vector<double> samples, double bandwidth);

  /// Fits with Silverman's rule-of-thumb bandwidth (the paper's choice).
  static common::Result<GaussianKde> FitSilverman(std::vector<double> samples);

  /// Density estimate at x.
  double Evaluate(double x) const;

  /// Density estimates at each grid point.
  std::vector<double> EvaluateOnGrid(const std::vector<double>& grid) const;

  /// Normalized pmf over `grid`: densities rescaled to sum to one. This is
  /// exactly the paper's `p_{s,q} ∝ sum_i K(q - x_i, h)` (Eq. 11). Requires
  /// a non-empty grid; returns InvalidArgument if the total density
  /// underflows to zero (grid entirely outside the data range).
  common::Result<std::vector<double>> PmfOnGrid(const std::vector<double>& grid) const;

  /// The same pmf on the uniform grid of `n >= 2` points spanning
  /// [lo, hi], computed by linear binning (Wand, JCGS 1994; Hall & Wand,
  /// JMVA 1996): each sample splits its unit mass (1 - f, f) between its
  /// two neighbouring grid points, and the bin weights are convolved with
  /// the kernel sampled at the grid lags, one `exp` per lag. No lag is
  /// truncated that the exact sum keeps: the kernel runs out to |z| = 37.5,
  /// where exp(-z^2 / 2) leaves the normal doubles. Cost O(n_samples +
  /// bins * lags) against O(n_samples * n) `exp` calls for `PmfOnGrid`.
  ///
  /// The binning error shrinks with (step / h)^2; `core::InterpolateMarginal`
  /// calls this only where step <= h / 4 and states the bound. Every sample
  /// must lie in [lo, hi] (InvalidArgument otherwise).
  common::Result<std::vector<double>> BinnedPmfOnUniformGrid(double lo, double hi,
                                                             size_t n) const;

  double bandwidth() const { return bandwidth_; }
  size_t sample_size() const { return samples_.size(); }

 private:
  GaussianKde(std::vector<double> samples, double bandwidth)
      : samples_(std::move(samples)), bandwidth_(bandwidth) {}

  std::vector<double> samples_;
  double bandwidth_ = 0.0;
};

}  // namespace otfair::stats

#endif  // OTFAIR_STATS_KDE_H_
