#include "stats/kde.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stats/normal.h"

namespace otfair::stats {
namespace {

std::vector<double> Grid(double lo, double hi, size_t n) {
  std::vector<double> g(n);
  for (size_t i = 0; i < n; ++i)
    g[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  return g;
}

TEST(KdeTest, SinglePointIsGaussianBump) {
  auto kde = GaussianKde::Fit({0.0}, 1.0);
  ASSERT_TRUE(kde.ok());
  EXPECT_NEAR(kde->Evaluate(0.0), NormalPdf(0.0), 1e-12);
  EXPECT_NEAR(kde->Evaluate(1.0), NormalPdf(1.0), 1e-12);
}

TEST(KdeTest, DensityIntegratesToOne) {
  common::Rng rng(6);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.Normal());
  auto kde = GaussianKde::FitSilverman(xs);
  ASSERT_TRUE(kde.ok());
  // Trapezoid rule over a wide grid.
  const auto grid = Grid(-8.0, 8.0, 2001);
  const double step = grid[1] - grid[0];
  double integral = 0.0;
  for (double g : grid) integral += kde->Evaluate(g) * step;
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(KdeTest, RecoversNormalDensity) {
  common::Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.Normal(2.0, 1.5));
  auto kde = GaussianKde::FitSilverman(xs);
  ASSERT_TRUE(kde.ok());
  for (double x : {0.0, 1.0, 2.0, 3.5}) {
    EXPECT_NEAR(kde->Evaluate(x), NormalPdf(x, 2.0, 1.5), 0.02) << "x=" << x;
  }
}

TEST(KdeTest, BimodalDataGivesBimodalDensity) {
  common::Rng rng(8);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.Normal(-3.0, 0.5));
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.Normal(3.0, 0.5));
  auto kde = GaussianKde::FitSilverman(xs);
  ASSERT_TRUE(kde.ok());
  const double at_modes = 0.5 * (kde->Evaluate(-3.0) + kde->Evaluate(3.0));
  EXPECT_GT(at_modes, 3.0 * kde->Evaluate(0.0));  // valley between modes
}

TEST(KdeTest, EvaluateOnGridMatchesPointwise) {
  auto kde = GaussianKde::Fit({0.0, 1.0, 2.0}, 0.5);
  ASSERT_TRUE(kde.ok());
  const auto grid = Grid(-1.0, 3.0, 17);
  const auto values = kde->EvaluateOnGrid(grid);
  ASSERT_EQ(values.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i)
    EXPECT_DOUBLE_EQ(values[i], kde->Evaluate(grid[i]));
}

TEST(KdeTest, PmfOnGridNormalized) {
  auto kde = GaussianKde::Fit({0.0, 0.5}, 0.3);
  ASSERT_TRUE(kde.ok());
  auto pmf = kde->PmfOnGrid(Grid(-2.0, 2.0, 41));
  ASSERT_TRUE(pmf.ok());
  double total = 0.0;
  for (double p : *pmf) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(KdeTest, PmfErrorsWhenGridFarOutsideData) {
  auto kde = GaussianKde::Fit({0.0}, 0.01);
  ASSERT_TRUE(kde.ok());
  auto pmf = kde->PmfOnGrid(Grid(1e6, 2e6, 5));
  EXPECT_FALSE(pmf.ok());
}

TEST(KdeTest, LargerBandwidthSmoothsPeaks) {
  const std::vector<double> xs = {0.0, 0.0, 0.0, 5.0};
  auto sharp = GaussianKde::Fit(xs, 0.1);
  auto smooth = GaussianKde::Fit(xs, 2.0);
  ASSERT_TRUE(sharp.ok() && smooth.ok());
  EXPECT_GT(sharp->Evaluate(0.0), smooth->Evaluate(0.0));
  EXPECT_LT(sharp->Evaluate(2.5), smooth->Evaluate(2.5));
}

TEST(KdeTest, RejectsBadInputs) {
  EXPECT_FALSE(GaussianKde::Fit({}, 1.0).ok());
  EXPECT_FALSE(GaussianKde::Fit({0.0}, 0.0).ok());
  EXPECT_FALSE(GaussianKde::Fit({0.0}, -1.0).ok());
  EXPECT_FALSE(GaussianKde::Fit({std::nan("")}, 1.0).ok());
  EXPECT_FALSE(GaussianKde::FitSilverman({}).ok());
}

/// The pmf a Gaussian kernel sum over `centres` (with weights) gives on
/// `grid`, normalized: the reference the binned estimator is held to.
std::vector<double> WeightedKernelPmf(const std::vector<double>& grid,
                                      const std::vector<double>& centres,
                                      const std::vector<double>& weights, double h) {
  std::vector<double> pmf(grid.size(), 0.0);
  double total = 0.0;
  for (size_t q = 0; q < grid.size(); ++q) {
    for (size_t c = 0; c < centres.size(); ++c) {
      const double z = (grid[q] - centres[c]) / h;
      pmf[q] += weights[c] * std::exp(-0.5 * z * z);
    }
    total += pmf[q];
  }
  for (double& p : pmf) p /= total;
  return pmf;
}

TEST(KdeTest, BinnedSampleOnGridPointIsTheSampledKernel) {
  auto kde = GaussianKde::Fit({0.0}, 0.3);
  ASSERT_TRUE(kde.ok());
  const auto grid = Grid(-2.0, 2.0, 41);
  auto binned = kde->BinnedPmfOnUniformGrid(-2.0, 2.0, 41);
  auto exact = kde->PmfOnGrid(grid);
  ASSERT_TRUE(binned.ok() && exact.ok());
  ASSERT_EQ(binned->size(), grid.size());
  for (size_t q = 0; q < grid.size(); ++q) EXPECT_NEAR((*binned)[q], (*exact)[q], 1e-15) << q;
}

TEST(KdeTest, BinnedSplitsEachSampleLinearlyBetweenNeighbours) {
  // 0.3 of the way from grid point 10 (x = 1.0) to 11 (x = 1.1): mass 0.7
  // goes to point 10 and 0.3 to point 11, each spread by the kernel.
  const auto grid = Grid(0.0, 2.0, 21);
  auto kde = GaussianKde::Fit({1.03}, 0.25);
  ASSERT_TRUE(kde.ok());
  auto binned = kde->BinnedPmfOnUniformGrid(0.0, 2.0, 21);
  ASSERT_TRUE(binned.ok());
  const auto expected = WeightedKernelPmf(grid, {grid[10], grid[11]}, {0.7, 0.3}, 0.25);
  for (size_t q = 0; q < grid.size(); ++q) EXPECT_NEAR((*binned)[q], expected[q], 1e-12) << q;
}

TEST(KdeTest, BinnedSamplesAtTheGridEndsStayOnTheGrid) {
  auto kde = GaussianKde::Fit({-1.0, 1.0}, 0.5);
  ASSERT_TRUE(kde.ok());
  auto binned = kde->BinnedPmfOnUniformGrid(-1.0, 1.0, 9);
  ASSERT_TRUE(binned.ok());
  const auto expected = WeightedKernelPmf(Grid(-1.0, 1.0, 9), {-1.0, 1.0}, {1.0, 1.0}, 0.5);
  double total = 0.0;
  for (size_t q = 0; q < expected.size(); ++q) {
    EXPECT_NEAR((*binned)[q], expected[q], 1e-12) << q;
    total += (*binned)[q];
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(KdeTest, BinnedKeepsEveryLagTheExactSumKeeps) {
  // One sample at the low end of a grid 30 bandwidths wide: the far end
  // carries exp(-450) of relative mass, which a kernel cut at a few
  // bandwidths would zero.
  const double h = 0.1;
  auto kde = GaussianKde::Fit({0.0}, h);
  ASSERT_TRUE(kde.ok());
  auto binned = kde->BinnedPmfOnUniformGrid(0.0, 30.0 * h, 301);
  auto exact = kde->PmfOnGrid(Grid(0.0, 30.0 * h, 301));
  ASSERT_TRUE(binned.ok() && exact.ok());
  ASSERT_GT(exact->back(), 0.0);
  EXPECT_NEAR(binned->back() / exact->back(), 1.0, 1e-9);
}

TEST(KdeTest, BinnedRejectsSamplesOffTheGridAndBadGrids) {
  auto kde = GaussianKde::Fit({0.0, 2.5}, 0.5);
  ASSERT_TRUE(kde.ok());
  EXPECT_EQ(kde->BinnedPmfOnUniformGrid(-1.0, 2.0, 64).status().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_FALSE(kde->BinnedPmfOnUniformGrid(-1.0, 3.0, 1).ok());
  EXPECT_FALSE(kde->BinnedPmfOnUniformGrid(3.0, -1.0, 64).ok());
  EXPECT_TRUE(kde->BinnedPmfOnUniformGrid(-1.0, 3.0, 64).ok());
}

TEST(KdeTest, SilvermanBandwidthRecorded) {
  common::Rng rng(9);
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(rng.Normal());
  auto kde = GaussianKde::FitSilverman(xs);
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->bandwidth(), 0.0);
  EXPECT_EQ(kde->sample_size(), 100u);
}

}  // namespace
}  // namespace otfair::stats
