// QuantileSketch contract tests. The load-bearing ones:
//
//  - Merge algebra: sharded sketches merged in ANY order (and any
//    grouping) produce bit-identical quantile estimates — the property
//    the serving redesign path relies on when combining per-shard
//    channel sketches.
//  - Accuracy: against exact sample quantiles of simulated data (binary
//    and K = 4 level mixtures), estimates honor the relative-accuracy
//    guarantee |q_est - q_exact| <= alpha * |q_exact| plus one
//    rank-discretization step.
//  - Bounded memory: bucket occupancy stays under the documented ceiling
//    no matter how many values stream in.
//  - Read tables: Cdf/Quantile through a Table (and the sketch's own
//    one-line wrappers over it) equal the pre-table per-bucket walk bit
//    for bit, edge cases included.

#include "stats/quantile_sketch.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_io.h"
#include "common/rng.h"
#include "sim/gaussian_mixture.h"
#include "testing/sketch_reference_walk.h"

namespace otfair::stats {
namespace {

std::vector<double> GaussianSample(size_t n, double mean, double sigma, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.Normal(mean, sigma);
  return xs;
}

/// The sketch guarantee: relative error alpha on the value, plus one
/// neighbor-rank step to absorb rank discretization at bucket boundaries.
void ExpectQuantileWithinBound(const QuantileSketch& sketch, const std::vector<double>& xs,
                               double p, double alpha) {
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  const size_t rank = static_cast<size_t>(p * static_cast<double>(n - 1));
  const double est = sketch.Quantile(p);
  const size_t lo_rank = rank > 0 ? rank - 1 : 0;
  const size_t hi_rank = rank + 1 < n ? rank + 1 : n - 1;
  const double lo = sorted[lo_rank];
  const double hi = sorted[hi_rank];
  const double slack_lo = alpha * std::fabs(lo) + 1e-12;
  const double slack_hi = alpha * std::fabs(hi) + 1e-12;
  EXPECT_GE(est, lo - slack_lo) << "p=" << p;
  EXPECT_LE(est, hi + slack_hi) << "p=" << p;
}

TEST(QuantileSketchTest, EmptySketchReportsNaN) {
  QuantileSketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_TRUE(std::isnan(sketch.Quantile(0.5)));
  EXPECT_TRUE(std::isnan(sketch.min()));
  EXPECT_TRUE(std::isnan(sketch.max()));
  EXPECT_EQ(sketch.Cdf(0.0), 0.0);
}

TEST(QuantileSketchTest, DropsNonFiniteValues) {
  QuantileSketch sketch;
  sketch.Add(1.0);
  sketch.Add(std::nan(""));
  sketch.Add(std::numeric_limits<double>::infinity());
  sketch.Add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(sketch.count(), 1u);
  EXPECT_EQ(sketch.dropped(), 3u);
  EXPECT_EQ(sketch.Quantile(0.5), 1.0);
}

TEST(QuantileSketchTest, ExtremeQuantilesAreExact) {
  QuantileSketch sketch;
  const std::vector<double> xs = GaussianSample(5000, 1.5, 2.0, 11);
  for (double x : xs) sketch.Add(x);
  EXPECT_EQ(sketch.Quantile(0.0), *std::min_element(xs.begin(), xs.end()));
  EXPECT_EQ(sketch.Quantile(1.0), *std::max_element(xs.begin(), xs.end()));
  EXPECT_EQ(sketch.min(), sketch.Quantile(0.0));
  EXPECT_EQ(sketch.max(), sketch.Quantile(1.0));
}

TEST(QuantileSketchTest, AccuracyAgainstExactQuantilesGaussian) {
  // Mixed-sign data exercises the negative store, the zero bucket, and the
  // positive store in one stream.
  QuantileSketch sketch;
  std::vector<double> xs = GaussianSample(20000, 0.0, 1.0, 21);
  xs.push_back(0.0);
  for (double x : xs) sketch.Add(x);
  EXPECT_EQ(sketch.count(), xs.size());
  for (double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99})
    ExpectQuantileWithinBound(sketch, xs, p, sketch.relative_accuracy());
}

TEST(QuantileSketchTest, AccuracyOnBinarySimulatedChannels) {
  // The serving use case: per-(u,s) channel streams from the paper's
  // binary Gaussian mixture.
  common::Rng rng(31);
  auto dataset =
      sim::SimulateGaussianMixture(8000, sim::GaussianSimConfig::PaperDefault(), rng);
  ASSERT_TRUE(dataset.ok());
  for (int s = 0; s <= 1; ++s) {
    QuantileSketch sketch;
    std::vector<double> xs;
    for (size_t i = 0; i < dataset->size(); ++i) {
      if (dataset->s(i) != s) continue;
      xs.push_back(dataset->feature(i, 0));
      sketch.Add(xs.back());
    }
    ASSERT_GT(xs.size(), 1000u);
    for (double p : {0.05, 0.25, 0.5, 0.75, 0.95})
      ExpectQuantileWithinBound(sketch, xs, p, sketch.relative_accuracy());
  }
}

TEST(QuantileSketchTest, AccuracyOnFourLevelMixture) {
  // K = 4 strata with well-separated means: each stratum's sketch must
  // track its own exact quantiles (the multi-group redesign input).
  const double means[4] = {-6.0, -1.0, 1.5, 8.0};
  for (int level = 0; level < 4; ++level) {
    QuantileSketch sketch;
    const std::vector<double> xs =
        GaussianSample(6000, means[level], 0.7, 40 + static_cast<uint64_t>(level));
    for (double x : xs) sketch.Add(x);
    for (double p : {0.1, 0.5, 0.9})
      ExpectQuantileWithinBound(sketch, xs, p, sketch.relative_accuracy());
  }
}

TEST(QuantileSketchTest, MergeMatchesSingleStreamExactly) {
  // Values split across shards and merged must reproduce the single-sketch
  // estimates bit-for-bit: bucket counts are integers, so there is no
  // floating-point merge drift.
  const std::vector<double> xs = GaussianSample(12000, -0.5, 3.0, 51);
  QuantileSketch whole;
  QuantileSketch shards[3];
  for (size_t i = 0; i < xs.size(); ++i) {
    whole.Add(xs[i]);
    shards[i % 3].Add(xs[i]);
  }
  QuantileSketch merged;
  for (const QuantileSketch& shard : shards) ASSERT_TRUE(merged.Merge(shard).ok());
  ASSERT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  for (double p = 0.0; p <= 1.0; p += 0.05)
    EXPECT_EQ(merged.Quantile(p), whole.Quantile(p)) << "p=" << p;
}

TEST(QuantileSketchTest, MergeIsCommutativeAndAssociativeBitForBit) {
  // Build 5 shard sketches, then combine them in several distinct orders
  // and groupings; every combination must yield identical estimates at a
  // fine grid of quantiles.
  constexpr size_t kShards = 5;
  QuantileSketch shards[kShards];
  for (size_t shard = 0; shard < kShards; ++shard) {
    const std::vector<double> xs =
        GaussianSample(3000 + 500 * shard, static_cast<double>(shard) - 2.0, 1.0 + 0.3 * shard,
                       60 + shard);
    for (double x : xs) shards[shard].Add(x);
  }
  auto combine = [&](const std::vector<size_t>& order) {
    QuantileSketch out;
    for (size_t i : order) EXPECT_TRUE(out.Merge(shards[i]).ok());
    return out;
  };
  const QuantileSketch forward = combine({0, 1, 2, 3, 4});
  const QuantileSketch backward = combine({4, 3, 2, 1, 0});
  const QuantileSketch shuffled = combine({2, 0, 4, 1, 3});
  // Associativity: ((0+1)+(2+3))+4 as a different grouping.
  QuantileSketch left, right, grouped;
  ASSERT_TRUE(left.Merge(shards[0]).ok() && left.Merge(shards[1]).ok());
  ASSERT_TRUE(right.Merge(shards[2]).ok() && right.Merge(shards[3]).ok());
  ASSERT_TRUE(grouped.Merge(left).ok() && grouped.Merge(right).ok() &&
              grouped.Merge(shards[4]).ok());
  for (double p = 0.0; p <= 1.0; p += 0.01) {
    const double reference = forward.Quantile(p);
    EXPECT_EQ(backward.Quantile(p), reference) << "p=" << p;
    EXPECT_EQ(shuffled.Quantile(p), reference) << "p=" << p;
    EXPECT_EQ(grouped.Quantile(p), reference) << "p=" << p;
  }
  EXPECT_EQ(backward.count(), forward.count());
  EXPECT_EQ(grouped.bucket_count(), forward.bucket_count());
}

TEST(QuantileSketchTest, MergeRejectsMismatchedGeometry) {
  QuantileSketch::Options coarse;
  coarse.relative_accuracy = 0.05;
  QuantileSketch a;
  QuantileSketch b(coarse);
  b.Add(1.0);
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(QuantileSketchTest, BoundedMemoryUnderAdversarialStream) {
  // Stream values spanning far beyond the clamped magnitude range; bucket
  // occupancy must stay below the documented ceiling (~5.5k at alpha=0.01).
  QuantileSketch sketch;
  common::Rng rng(71);
  for (int i = 0; i < 200000; ++i) {
    const double exponent = rng.Uniform() * 40.0 - 20.0;  // 1e-20 .. 1e20
    const double sign = rng.Uniform() < 0.5 ? -1.0 : 1.0;
    sketch.Add(sign * std::pow(10.0, exponent));
  }
  sketch.Add(0.0);
  EXPECT_EQ(sketch.count(), 200001u);
  EXPECT_LT(sketch.bucket_count(), 6000u);
  // Quantiles remain ordered even with clamped tails.
  double prev = sketch.Quantile(0.0);
  for (double p = 0.1; p <= 1.0; p += 0.1) {
    const double q = sketch.Quantile(p);
    EXPECT_GE(q, prev) << "p=" << p;
    prev = q;
  }
}

TEST(QuantileSketchTest, CdfIsMonotoneAndMatchesEmpirical) {
  QuantileSketch sketch;
  const std::vector<double> xs = GaussianSample(10000, 0.0, 1.0, 81);
  for (double x : xs) sketch.Add(x);
  double prev = 0.0;
  for (double x = -4.0; x <= 4.0; x += 0.25) {
    const double c = sketch.Cdf(x);
    EXPECT_GE(c, prev - 1e-12);
    prev = c;
    const double empirical =
        static_cast<double>(std::count_if(xs.begin(), xs.end(),
                                          [&](double v) { return v <= x; })) /
        static_cast<double>(xs.size());
    EXPECT_NEAR(c, empirical, 0.02) << "x=" << x;
  }
  EXPECT_EQ(sketch.Cdf(-100.0), 0.0);
  EXPECT_EQ(sketch.Cdf(100.0), 1.0);
}

TEST(QuantileSketchTest, ResetClearsObservedStateKeepsGeometry) {
  QuantileSketch sketch;
  for (double x : GaussianSample(1000, 2.0, 1.0, 91)) sketch.Add(x);
  ASSERT_GT(sketch.bucket_count(), 0u);
  sketch.Reset();
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.bucket_count(), 0u);
  EXPECT_TRUE(std::isnan(sketch.Quantile(0.5)));
  sketch.Add(3.0);
  EXPECT_EQ(sketch.Quantile(0.5), 3.0);
}

TEST(QuantileSketchSerializationTest, RoundTripRestoresBitIdenticalEstimates) {
  QuantileSketch sketch;
  // Positives, negatives, zeros, extremes — every store participates.
  for (double x : GaussianSample(5000, 0.0, 3.0, 17)) sketch.Add(x);
  sketch.Add(0.0);
  sketch.Add(0.0);
  std::string bytes;
  common::ByteWriter writer(&bytes);
  sketch.SerializeTo(writer);

  QuantileSketch restored;
  common::ByteReader reader(bytes);
  ASSERT_TRUE(restored.DeserializeFrom(reader).ok());
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(restored.count(), sketch.count());
  EXPECT_EQ(restored.dropped(), sketch.dropped());
  EXPECT_EQ(restored.min(), sketch.min());
  EXPECT_EQ(restored.max(), sketch.max());
  for (double p : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0})
    EXPECT_EQ(restored.Quantile(p), sketch.Quantile(p)) << "p=" << p;
  // And the restored sketch re-serializes to the same bytes.
  std::string again;
  common::ByteWriter writer2(&again);
  restored.SerializeTo(writer2);
  EXPECT_EQ(again, bytes);
}

TEST(QuantileSketchSerializationTest, EmptySketchRoundTrips) {
  QuantileSketch sketch;
  std::string bytes;
  common::ByteWriter writer(&bytes);
  sketch.SerializeTo(writer);
  QuantileSketch restored;
  common::ByteReader reader(bytes);
  ASSERT_TRUE(restored.DeserializeFrom(reader).ok());
  EXPECT_EQ(restored.count(), 0u);
  EXPECT_TRUE(std::isnan(restored.Quantile(0.5)));
}

TEST(QuantileSketchSerializationTest, CorruptPayloadsRejectedWithoutMutating) {
  QuantileSketch sketch;
  for (double x : GaussianSample(2000, 1.0, 1.0, 18)) sketch.Add(x);
  std::string bytes;
  common::ByteWriter writer(&bytes);
  sketch.SerializeTo(writer);

  // Truncations: every parse fails, and the target sketch keeps its prior
  // state (commit-on-success semantics).
  for (size_t len : {size_t{0}, size_t{4}, bytes.size() / 2, bytes.size() - 1}) {
    QuantileSketch target;
    target.Add(42.0);
    common::ByteReader reader(bytes.data(), len);
    EXPECT_FALSE(target.DeserializeFrom(reader).ok()) << "prefix " << len;
    EXPECT_EQ(target.count(), 1u);
    EXPECT_EQ(target.Quantile(0.5), 42.0);
  }
  // A bucket-count/total mismatch (flip a count byte) is caught by the
  // overflow-safe sum check.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x01);
  QuantileSketch target;
  common::ByteReader reader(flipped);
  // Either an invalid-structure error or (if the flip hit min/max) a
  // finite-extremes failure; it must not be silently accepted as-is with
  // inconsistent counts.
  if (target.DeserializeFrom(reader).ok()) {
    // The flip landed somewhere value-only (e.g. min/max mantissa) that
    // keeps the invariants intact; counts must still be self-consistent.
    EXPECT_EQ(target.count(), sketch.count());
  }
}

// --- Read tables against the pre-table walk --------------------------------

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// Every probe the table must answer exactly as the per-bucket walk did:
/// each bucket value and its neighbours one ulp away, the extremes and
/// beyond, NaN and the infinities for Cdf; the clamp and NaN branches and a
/// grid (plus the designer's midpoint probes) for Quantile. Checks a table
/// built once, and the sketch's own wrappers.
void ExpectTableMatchesWalk(const QuantileSketch& sketch) {
  const testing::ReferenceSketchWalk walk(sketch);
  ASSERT_TRUE(walk.complete());
  const QuantileSketch::Table table = sketch.BuildTable();
  EXPECT_EQ(table.count(), sketch.count());

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {std::nan(""), -kInf, kInf, 0.0, -0.0, 1e-13, -1e-13};
  if (sketch.count() > 0) {
    for (double extreme : {sketch.min(), sketch.max()}) {
      xs.push_back(extreme);
      xs.push_back(std::nextafter(extreme, -kInf));
      xs.push_back(std::nextafter(extreme, kInf));
    }
    xs.push_back(sketch.min() - 1.0);
    xs.push_back(sketch.max() + 1.0);
  }
  for (double value : walk.BucketValues()) {
    xs.push_back(value);
    xs.push_back(std::nextafter(value, -kInf));
    xs.push_back(std::nextafter(value, kInf));
  }
  for (double x : xs) {
    const double expected = walk.Cdf(x);
    EXPECT_EQ(Bits(table.Cdf(x)), Bits(expected)) << "Cdf x=" << x;
    EXPECT_EQ(Bits(sketch.Cdf(x)), Bits(expected)) << "Cdf x=" << x;
  }

  std::vector<double> ps = {0.0,  1.0,  std::nan(""), std::nextafter(1.0, 0.0),
                            std::nextafter(0.0, 1.0), -0.5, 1.5, -kInf, kInf};
  for (int i = 0; i <= 1000; ++i) ps.push_back(i / 1000.0);
  for (int i = 0; i < 512; ++i) ps.push_back((i + 0.5) / 512.0);
  for (double p : ps) {
    const double expected = walk.Quantile(p);
    EXPECT_EQ(Bits(table.Quantile(p)), Bits(expected)) << "Quantile p=" << p;
    EXPECT_EQ(Bits(sketch.Quantile(p)), Bits(expected)) << "Quantile p=" << p;
  }
}

/// Negative, zero-bucket (|x| < 1e-12) and positive values from one seed.
std::vector<double> SignedStream(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) {
    const double u = rng.Uniform();
    if (u < 0.05) {
      x = rng.Uniform(-1e-12, 1e-12);  // lands in the zero bucket
    } else if (u < 0.08) {
      x = 0.0;
    } else {
      x = rng.Normal(0.5, 3.0);
    }
  }
  return xs;
}

TEST(QuantileSketchTableTest, EmptyTableMatchesWalk) {
  QuantileSketch sketch;
  ExpectTableMatchesWalk(sketch);
  EXPECT_TRUE(std::isnan(sketch.BuildTable().Quantile(0.5)));
  EXPECT_EQ(sketch.BuildTable().Cdf(1.0), 0.0);
}

TEST(QuantileSketchTableTest, SignedStreamsMatchWalk) {
  for (uint64_t seed : {31u, 32u, 33u}) {
    QuantileSketch sketch;
    for (double x : SignedStream(4000, seed)) sketch.Add(x);
    SCOPED_TRACE(seed);
    ExpectTableMatchesWalk(sketch);
  }
}

TEST(QuantileSketchTableTest, CoarseAndFineGeometriesMatchWalk) {
  for (double alpha : {1e-4, 0.003, 0.05, 0.25}) {
    QuantileSketch sketch(QuantileSketch::Options{alpha});
    for (double x : SignedStream(600, 34)) sketch.Add(x);
    SCOPED_TRACE(alpha);
    ExpectTableMatchesWalk(sketch);
  }
}

TEST(QuantileSketchTableTest, SingleValueMatchesWalk) {
  for (double v : {2.5, -2.5, 0.0, 1e-13, 1e12, -3e15}) {
    QuantileSketch sketch;
    sketch.Add(v);
    SCOPED_TRACE(v);
    ExpectTableMatchesWalk(sketch);
    EXPECT_EQ(sketch.Quantile(0.5), v);
    EXPECT_EQ(sketch.Cdf(v), 1.0);
  }
}

TEST(QuantileSketchTableTest, ShardsMergedInShuffledOrderMatchWalk) {
  const std::vector<double> xs = SignedStream(6000, 35);
  std::vector<QuantileSketch> shards(8);
  for (size_t i = 0; i < xs.size(); ++i) shards[i % shards.size()].Add(xs[i]);
  common::Rng rng(36);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<size_t> order(shards.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(i))]);
    QuantileSketch merged;
    for (size_t i : order) ASSERT_TRUE(merged.Merge(shards[i]).ok());
    SCOPED_TRACE(trial);
    ExpectTableMatchesWalk(merged);
  }
}

TEST(QuantileSketchTableTest, DeserializedSketchMatchesWalk) {
  QuantileSketch sketch;
  for (double x : SignedStream(3000, 37)) sketch.Add(x);
  std::string bytes;
  common::ByteWriter writer(&bytes);
  sketch.SerializeTo(writer);
  QuantileSketch restored;
  common::ByteReader reader(bytes);
  ASSERT_TRUE(restored.DeserializeFrom(reader).ok());
  ExpectTableMatchesWalk(restored);
  // And the restored table answers exactly what the original's does.
  const QuantileSketch::Table original = sketch.BuildTable();
  const QuantileSketch::Table again = restored.BuildTable();
  for (int i = 0; i <= 200; ++i) {
    const double p = i / 200.0;
    EXPECT_EQ(Bits(again.Quantile(p)), Bits(original.Quantile(p)));
    const double x = -10.0 + 0.1 * i;
    EXPECT_EQ(Bits(again.Cdf(x)), Bits(original.Cdf(x)));
  }
}

TEST(QuantileSketchTableTest, TableIsASnapshot) {
  QuantileSketch sketch;
  for (double x : {1.0, 2.0, 3.0}) sketch.Add(x);
  const QuantileSketch::Table table = sketch.BuildTable();
  sketch.Add(100.0);
  EXPECT_EQ(table.count(), 3u);
  EXPECT_EQ(table.Quantile(1.0), 3.0);
  EXPECT_EQ(table.Cdf(3.0), 1.0);
  EXPECT_EQ(sketch.Quantile(1.0), 100.0);
}

}  // namespace
}  // namespace otfair::stats
