#include "core/marginals.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/csv.h"
#include "sim/gaussian_mixture.h"
#include "stats/kde.h"
#include "stats/normal.h"

#ifndef OTFAIR_GOLDEN_DIR
#define OTFAIR_GOLDEN_DIR "tests/data/golden"
#endif

namespace otfair::core {
namespace {

/// The weights of the marginal the exact estimator gives: Silverman's (or
/// the explicit) bandwidth, one kernel term per sample per grid point.
std::vector<double> ExactPmf(const std::vector<double>& samples, const SupportGrid& grid,
                             double bandwidth = 0.0) {
  auto kde = bandwidth > 0.0 ? stats::GaussianKde::Fit(samples, bandwidth)
                             : stats::GaussianKde::FitSilverman(samples);
  EXPECT_TRUE(kde.ok());
  auto pmf = kde->PmfOnGrid(grid.points());
  EXPECT_TRUE(pmf.ok());
  auto measure = ot::DiscreteMeasure::Create(grid.points(), std::move(*pmf));
  EXPECT_TRUE(measure.ok());
  return measure->weights();
}

double L1(const ot::DiscreteMeasure& marginal, const std::vector<double>& reference) {
  EXPECT_EQ(marginal.size(), reference.size());
  double l1 = 0.0;
  for (size_t q = 0; q < reference.size(); ++q)
    l1 += std::fabs(marginal.weight_at(q) - reference[q]);
  return l1;
}

/// Grid step over Silverman's bandwidth for a grid of `n_q` states
/// spanning the samples.
double StepOverBandwidth(const std::vector<double>& samples, const SupportGrid& grid) {
  auto kde = stats::GaussianKde::FitSilverman(samples);
  EXPECT_TRUE(kde.ok());
  return grid.step() / kde->bandwidth();
}

/// The four sample shapes the binned estimator's bound is stated over.
std::vector<std::pair<std::string, std::vector<double>>> RuleSampleSets() {
  common::Rng rng(2024);
  std::vector<std::pair<std::string, std::vector<double>>> sets;
  std::vector<double> unimodal(750);
  for (double& x : unimodal) x = rng.Normal(0.0, 1.0);
  sets.emplace_back("unimodal n=750", std::move(unimodal));
  std::vector<double> bimodal;
  for (int i = 0; i < 1500; ++i) bimodal.push_back(rng.Normal(-1.0, 1.0));
  for (int i = 0; i < 1500; ++i) bimodal.push_back(rng.Normal(2.5, 0.6));
  sets.emplace_back("bimodal n=3000", std::move(bimodal));
  std::vector<double> skewed(200);
  for (double& x : skewed) x = std::exp(rng.Normal(0.0, 0.75));
  sets.emplace_back("log-normal n=200", std::move(skewed));
  // What the sketch-driven redesign feeds the designer: midpoint probes of
  // a quantile function.
  std::vector<double> probes(512);
  for (size_t i = 0; i < probes.size(); ++i)
    probes[i] = stats::NormalQuantile((static_cast<double>(i) + 0.5) / 512.0);
  sets.emplace_back("normal midpoint quantiles n=512", std::move(probes));
  return sets;
}

TEST(MarginalsTest, BinnedWithinL1OfExactWhereGridResolvesKernel) {
  // step <= h / 4 takes the binned estimator. Its L1 distance to the exact
  // one is (step^2 / 12) * integral |f''| to leading order: below 1e-3 at
  // the threshold for these shapes, and falling with (step / h)^2. A
  // coarser grid takes the exact estimator itself, bit for bit.
  for (const auto& [name, samples] : RuleSampleSets()) {
    size_t binned_cases = 0;
    for (size_t n_q : {128u, 250u, 512u, 1024u}) {
      SCOPED_TRACE(name + ", n_Q " + std::to_string(n_q));
      auto grid = SupportGrid::FromSamples(samples, n_q);
      ASSERT_TRUE(grid.ok());
      auto marginal = InterpolateMarginal(samples, *grid);
      ASSERT_TRUE(marginal.ok());
      const std::vector<double> exact = ExactPmf(samples, *grid);
      const double ratio = StepOverBandwidth(samples, *grid);
      if (ratio <= 0.25) {
        ++binned_cases;
        EXPECT_LE(L1(*marginal, exact), 1e-3);
        EXPECT_LE(L1(*marginal, exact), 0.02 * ratio * ratio);
      } else {
        for (size_t q = 0; q < exact.size(); ++q) EXPECT_EQ(marginal->weight_at(q), exact[q]);
      }
    }
    // n_Q 512 and 1024 resolve the kernel for every shape here.
    EXPECT_GE(binned_cases, 2u) << name;
  }
}

TEST(MarginalsTest, BinnedErrorStaysBelowTheAtomicBound) {
  // Tight clusters halfway between grid points are the worst case: each
  // sample's (1 - f, f) split then errs by step^2 / 8 * |K''|, and the
  // integral of |K''| is 0.968 / h^2, so L1 ~ 0.121 (step / h)^2, about
  // 7.6e-3 at step = h / 4.
  auto grid = SupportGrid::Create(0.0, 1.0, 257);
  ASSERT_TRUE(grid.ok());
  std::vector<double> samples;
  common::Rng rng(33);
  for (double atom : {25.5, 115.5, 200.5}) {
    for (int i = 0; i < 100; ++i)
      samples.push_back((atom + 1e-3 * rng.Uniform(-1.0, 1.0)) * grid->step());
  }
  for (double ratio : {0.25, 0.125, 0.0625}) {
    SCOPED_TRACE("step/h " + std::to_string(ratio));
    MarginalOptions options;
    options.bandwidth = grid->step() / ratio;
    auto marginal = InterpolateMarginal(samples, *grid, options);
    ASSERT_TRUE(marginal.ok());
    const double l1 = L1(*marginal, ExactPmf(samples, *grid, options.bandwidth));
    EXPECT_LE(l1, 0.125 * ratio * ratio);
  }
}

TEST(MarginalsTest, BinnedWithinTightL1AtBenchmarkConfiguration) {
  // The benchmark's design: the paper's mixture, 3000 research rows,
  // n_Q = 512 over each u-stratum's range, every (u, s, k) marginal.
  common::Rng rng(77);
  auto research = sim::SimulateGaussianMixture(3000, sim::GaussianSimConfig::PaperDefault(), rng);
  ASSERT_TRUE(research.ok());
  for (int u = 0; u < 2; ++u) {
    for (size_t k = 0; k < research->dim(); ++k) {
      auto grid = SupportGrid::FromSamples(research->FeatureColumn(k, research->UIndices(u)), 512);
      ASSERT_TRUE(grid.ok());
      for (int s = 0; s < 2; ++s) {
        const std::vector<double> samples =
            research->FeatureColumn(k, research->GroupIndices({u, s}));
        ASSERT_LE(StepOverBandwidth(samples, *grid), 0.25);
        auto marginal = InterpolateMarginal(samples, *grid);
        ASSERT_TRUE(marginal.ok());
        EXPECT_LE(L1(*marginal, ExactPmf(samples, *grid)), 1e-4)
            << "u=" << u << " s=" << s << " k=" << k;
      }
    }
  }
}

TEST(MarginalsTest, CoarseGoldenGridsStayExact) {
  // The golden fixtures design at n_Q = 32 (step/h 0.34-0.59), so every
  // weight there is the exact KDE's. At n_Q = 50 one channel of this CSV
  // sits at step/h 0.22 and is binned; the rest stay exact.
  auto research = data::ReadCsv(std::string(OTFAIR_GOLDEN_DIR) + "/golden_research.csv");
  ASSERT_TRUE(research.ok()) << research.status().ToString();
  size_t exact_cases[2] = {0, 0};  // n_Q 32, n_Q 50
  for (size_t n_q : {32u, 50u}) {
    for (int u = 0; u < 2; ++u) {
      for (size_t k = 0; k < research->dim(); ++k) {
        auto grid =
            SupportGrid::FromSamples(research->FeatureColumn(k, research->UIndices(u)), n_q);
        ASSERT_TRUE(grid.ok());
        for (int s = 0; s < 2; ++s) {
          const std::vector<double> samples =
              research->FeatureColumn(k, research->GroupIndices({u, s}));
          auto marginal = InterpolateMarginal(samples, *grid);
          ASSERT_TRUE(marginal.ok());
          const std::vector<double> exact = ExactPmf(samples, *grid);
          const double ratio = StepOverBandwidth(samples, *grid);
          if (ratio > 0.25) {
            ++exact_cases[n_q == 32 ? 0 : 1];
            for (size_t q = 0; q < n_q; ++q)
              EXPECT_EQ(marginal->weight_at(q), exact[q]) << "n_Q " << n_q << " q " << q;
          } else {
            EXPECT_LE(L1(*marginal, exact), 0.125 * ratio * ratio) << "n_Q " << n_q;
          }
        }
      }
    }
  }
  EXPECT_EQ(exact_cases[0], 8u);
  EXPECT_EQ(exact_cases[1], 7u);
}

TEST(MarginalsTest, SampleOutsideGridTakesExactPath) {
  common::Rng rng(31);
  std::vector<double> samples(750);
  for (double& x : samples) x = rng.Normal(0.0, 1.0);
  auto grid = SupportGrid::Create(-1.0, 1.0, 512);
  ASSERT_TRUE(grid.ok());
  ASSERT_LE(StepOverBandwidth(samples, *grid), 0.25);
  auto marginal = InterpolateMarginal(samples, *grid);
  ASSERT_TRUE(marginal.ok());
  const std::vector<double> exact = ExactPmf(samples, *grid);
  for (size_t q = 0; q < exact.size(); ++q) EXPECT_EQ(marginal->weight_at(q), exact[q]);
}

TEST(MarginalsTest, NonFiniteSampleGivesTheExactEstimatorsError) {
  auto grid = SupportGrid::Create(0.0, 1.0, 512);
  ASSERT_TRUE(grid.ok());
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    const std::vector<double> samples = {0.2, bad, 0.7};
    auto marginal = InterpolateMarginal(samples, *grid);
    auto kde = stats::GaussianKde::FitSilverman(samples);
    ASSERT_FALSE(marginal.ok());
    ASSERT_FALSE(kde.ok());
    EXPECT_EQ(marginal.status().code(), common::StatusCode::kInvalidArgument);
    EXPECT_EQ(marginal.status().ToString(), kde.status().ToString());
  }
}

TEST(MarginalsTest, ExplicitBandwidthHonouredOnBinnedPath) {
  common::Rng rng(32);
  std::vector<double> samples(750);
  for (double& x : samples) x = rng.Normal(0.0, 1.0);
  auto grid = SupportGrid::FromSamples(samples, 512);
  ASSERT_TRUE(grid.ok());
  MarginalOptions options;
  options.bandwidth = 0.5;
  ASSERT_LE(grid->step(), options.bandwidth / 4.0);
  auto marginal = InterpolateMarginal(samples, *grid, options);
  ASSERT_TRUE(marginal.ok());
  EXPECT_LE(L1(*marginal, ExactPmf(samples, *grid, options.bandwidth)), 5e-4);
  EXPECT_GT(L1(*marginal, ExactPmf(samples, *grid)), 1e-2);  // not Silverman's h
}

TEST(MarginalsTest, SingleAndRepeatedSamplesWellFormed) {
  // A lone sample and an all-equal sample, on a fine grid with an explicit
  // bandwidth (binned) and with Silverman's degenerate bandwidth.
  struct Case {
    std::vector<double> samples;
    double bandwidth;
  };
  for (const Case& c : {Case{{0.3}, 0.1}, Case{{0.3}, 0.0}, Case{std::vector<double>(10, 0.3), 0.1},
                        Case{std::vector<double>(10, 0.3), 0.0}}) {
    auto grid = SupportGrid::FromSamples(c.samples, 512);  // widened to [-0.2, 0.8]
    ASSERT_TRUE(grid.ok());
    MarginalOptions options;
    options.bandwidth = c.bandwidth;
    auto marginal = InterpolateMarginal(c.samples, *grid, options);
    ASSERT_TRUE(marginal.ok()) << marginal.status().ToString();
    EXPECT_LT(marginal->NormalizationError(), 1e-12);
    size_t argmax = 0;
    for (size_t q = 0; q < marginal->size(); ++q) {
      EXPECT_GE(marginal->weight_at(q), 0.0);
      if (marginal->weight_at(q) > marginal->weight_at(argmax)) argmax = q;
    }
    EXPECT_NEAR(marginal->support_at(argmax), 0.3, grid->step());
    if (c.bandwidth > 0.0) {
      EXPECT_LE(L1(*marginal, ExactPmf(c.samples, *grid, c.bandwidth)), 5e-4);
    }
  }
}

TEST(MarginalsTest, PmfOnGridNormalized) {
  common::Rng rng(100);
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) samples.push_back(rng.Normal());
  auto grid = SupportGrid::FromSamples(samples, 50);
  ASSERT_TRUE(grid.ok());
  auto marginal = InterpolateMarginal(samples, *grid);
  ASSERT_TRUE(marginal.ok());
  EXPECT_EQ(marginal->size(), 50u);
  EXPECT_LT(marginal->NormalizationError(), 1e-12);
  EXPECT_EQ(marginal->support(), grid->points());
}

TEST(MarginalsTest, TracksUnderlyingDensityShape) {
  common::Rng rng(101);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(rng.Normal(0.0, 1.0));
  auto grid = SupportGrid::Create(-3.0, 3.0, 61);
  ASSERT_TRUE(grid.ok());
  auto marginal = InterpolateMarginal(samples, *grid);
  ASSERT_TRUE(marginal.ok());
  // Mode near 0, symmetric-ish tails.
  size_t argmax = 0;
  for (size_t q = 1; q < marginal->size(); ++q) {
    if (marginal->weight_at(q) > marginal->weight_at(argmax)) argmax = q;
  }
  EXPECT_NEAR(marginal->support_at(argmax), 0.0, 0.3);
  EXPECT_NEAR(marginal->Mean(), 0.0, 0.1);
}

TEST(MarginalsTest, ExplicitBandwidthUsed) {
  std::vector<double> samples = {0.0};
  auto grid = SupportGrid::Create(-2.0, 2.0, 41);
  ASSERT_TRUE(grid.ok());
  MarginalOptions wide;
  wide.bandwidth = 1.0;
  MarginalOptions narrow;
  narrow.bandwidth = 0.1;
  auto broad = InterpolateMarginal(samples, *grid, wide);
  auto sharp = InterpolateMarginal(samples, *grid, narrow);
  ASSERT_TRUE(broad.ok() && sharp.ok());
  // Narrow bandwidth concentrates more mass at the atom's grid point.
  const size_t centre = 20;  // grid point 0.0
  EXPECT_GT(sharp->weight_at(centre), broad->weight_at(centre));
}

TEST(MarginalsTest, SmallSampleStillWellFormed) {
  auto grid = SupportGrid::Create(0.0, 1.0, 11);
  ASSERT_TRUE(grid.ok());
  auto marginal = InterpolateMarginal({0.4, 0.6}, *grid);
  ASSERT_TRUE(marginal.ok());
  EXPECT_LT(marginal->NormalizationError(), 1e-12);
}

TEST(MarginalsTest, RejectsEmptySample) {
  auto grid = SupportGrid::Create(0.0, 1.0, 5);
  ASSERT_TRUE(grid.ok());
  EXPECT_FALSE(InterpolateMarginal({}, *grid).ok());
}

TEST(MarginalsTest, VarianceInflatedByKernelSmoothing) {
  // KDE adds h^2 to the sample variance; check directionally.
  common::Rng rng(102);
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) samples.push_back(rng.Normal(0.0, 1.0));
  auto grid = SupportGrid::Create(-5.0, 5.0, 201);
  ASSERT_TRUE(grid.ok());
  MarginalOptions options;
  options.bandwidth = 1.0;  // large, to make the inflation visible
  auto marginal = InterpolateMarginal(samples, *grid, options);
  ASSERT_TRUE(marginal.ok());
  EXPECT_GT(marginal->Variance(), 1.5);  // ~ 1 + 1
}

}  // namespace
}  // namespace otfair::core
