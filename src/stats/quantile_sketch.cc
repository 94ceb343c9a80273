#include "stats/quantile_sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace otfair::stats {

using common::Status;

namespace {

/// Magnitudes below this collapse into the zero bucket; above the inverse,
/// into the top bucket. Together with the log-bin geometry this caps the
/// key span (and therefore sketch memory) at a constant.
constexpr double kMinAbs = 1e-12;
constexpr double kMaxAbs = 1e12;

}  // namespace

QuantileSketch::QuantileSketch(const Options& options) {
  alpha_ = std::min(0.25, std::max(1e-4, options.relative_accuracy));
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
  min_key_ = static_cast<int>(std::ceil(std::log(kMinAbs) * inv_log_gamma_));
  max_key_ = static_cast<int>(std::ceil(std::log(kMaxAbs) * inv_log_gamma_));
}

void QuantileSketch::Store::Add(int key, uint64_t n) {
  if (counts.empty()) {
    base = key;
    counts.push_back(n);
    return;
  }
  if (key < base) {
    counts.insert(counts.begin(), static_cast<size_t>(base - key), 0);
    base = key;
  } else if (key >= base + static_cast<int>(counts.size())) {
    counts.resize(static_cast<size_t>(key - base) + 1, 0);
  }
  counts[static_cast<size_t>(key - base)] += n;
}

int QuantileSketch::KeyFor(double abs_value) const {
  const double k = std::ceil(std::log(abs_value) * inv_log_gamma_);
  if (k <= min_key_) return min_key_;
  if (k >= max_key_) return max_key_;
  return static_cast<int>(k);
}

double QuantileSketch::BucketValue(int key) const {
  // Midpoint (in the relative sense) of the bucket (gamma^{k-1}, gamma^k]:
  // worst-case relative error alpha for any value in the bucket.
  return 2.0 * std::pow(gamma_, key) / (gamma_ + 1.0);
}

void QuantileSketch::Add(double x) {
  if (!std::isfinite(x)) {
    ++dropped_;
    return;
  }
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double ax = std::fabs(x);
  if (ax < kMinAbs) {
    ++zero_count_;
  } else if (x > 0.0) {
    positive_.Add(KeyFor(ax), 1);
  } else {
    negative_.Add(KeyFor(ax), 1);
  }
}

Status QuantileSketch::Merge(const QuantileSketch& other) {
  if (std::fabs(alpha_ - other.alpha_) > 1e-12)
    return Status::InvalidArgument("cannot merge sketches with different relative accuracy");
  for (size_t i = 0; i < other.negative_.counts.size(); ++i)
    if (other.negative_.counts[i] > 0)
      negative_.Add(other.negative_.base + static_cast<int>(i), other.negative_.counts[i]);
  for (size_t i = 0; i < other.positive_.counts.size(); ++i)
    if (other.positive_.counts[i] > 0)
      positive_.Add(other.positive_.base + static_cast<int>(i), other.positive_.counts[i]);
  zero_count_ += other.zero_count_;
  dropped_ += other.dropped_;
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
  }
  return Status::Ok();
}

double QuantileSketch::min() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
}

double QuantileSketch::max() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
}

QuantileSketch::Table QuantileSketch::BuildTable() const {
  Table table;
  table.count_ = count_;
  table.min_ = min_;
  table.max_ = max_;
  if (count_ == 0) return table;
  // Ascending value order: negatives (descending key), zero, positives
  // (ascending key).
  uint64_t cumulative = 0;
  auto append = [&](double value, uint64_t n) {
    cumulative += n;
    table.values_.push_back(value);
    table.cumulative_.push_back(cumulative);
  };
  const size_t occupied = bucket_count();
  table.values_.reserve(occupied);
  table.cumulative_.reserve(occupied);
  for (size_t i = negative_.counts.size(); i-- > 0;) {
    if (negative_.counts[i] > 0)
      append(-BucketValue(negative_.base + static_cast<int>(i)), negative_.counts[i]);
  }
  if (zero_count_ > 0) append(0.0, zero_count_);
  for (size_t i = 0; i < positive_.counts.size(); ++i) {
    if (positive_.counts[i] > 0)
      append(BucketValue(positive_.base + static_cast<int>(i)), positive_.counts[i]);
  }
  return table;
}

double QuantileSketch::Table::Quantile(double p) const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  p = std::min(1.0, std::max(0.0, p));
  if (p <= 0.0) return min_;
  if (p >= 1.0) return max_;
  // 0-based rank of the order statistic the estimate targets; the estimate
  // is the first bucket whose running count passes it.
  const uint64_t rank =
      static_cast<uint64_t>(p * static_cast<double>(count_ - 1));
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), rank);
  const double result =
      it == cumulative_.end() ? max_ : values_[static_cast<size_t>(it - cumulative_.begin())];
  return std::min(max_, std::max(min_, result));
}

double QuantileSketch::Table::Cdf(double x) const {
  if (count_ == 0) return 0.0;
  if (std::isnan(x) || x < min_) return 0.0;
  if (x >= max_) return 1.0;
  // The buckets whose value is <= x form a prefix of the ascending table.
  const size_t prefix = static_cast<size_t>(
      std::upper_bound(values_.begin(), values_.end(), x) - values_.begin());
  const uint64_t below = prefix == 0 ? 0 : cumulative_[prefix - 1];
  return static_cast<double>(below) / static_cast<double>(count_);
}

void QuantileSketch::Reset() {
  negative_.counts.clear();
  positive_.counts.clear();
  negative_.base = 0;
  positive_.base = 0;
  zero_count_ = 0;
  count_ = 0;
  dropped_ = 0;
  min_ = 0.0;
  max_ = 0.0;
}

size_t QuantileSketch::bucket_count() const {
  return negative_.counts.size() + positive_.counts.size() + (zero_count_ > 0 ? 1 : 0);
}

void QuantileSketch::SerializeTo(common::ByteWriter& writer) const {
  writer.F64(alpha_);
  for (const Store* store : {&negative_, &positive_}) {
    writer.I32(store->base);
    writer.U64(store->counts.size());
    writer.U64s(store->counts.data(), store->counts.size());
  }
  writer.U64(zero_count_);
  writer.U64(count_);
  writer.U64(dropped_);
  writer.F64(min_);
  writer.F64(max_);
}

Status QuantileSketch::DeserializeFrom(common::ByteReader& reader) {
  double alpha = 0.0;
  if (!reader.F64(&alpha)) return Status::InvalidArgument("sketch: truncated alpha");
  if (!std::isfinite(alpha) || alpha < 1e-4 || alpha > 0.25)
    return Status::InvalidArgument("sketch: relative accuracy out of range");

  // Rebuild the geometry from alpha, then validate every bucket span
  // against it before any state is committed.
  QuantileSketch fresh(Options{alpha});

  const size_t key_span =
      static_cast<size_t>(fresh.max_key_ - fresh.min_key_) + 1;
  for (Store* store : {&fresh.negative_, &fresh.positive_}) {
    int32_t base = 0;
    uint64_t size = 0;
    if (!reader.I32(&base) || !reader.U64(&size))
      return Status::InvalidArgument("sketch: truncated store header");
    if (size > key_span)
      return Status::InvalidArgument("sketch: store size exceeds key span");
    if (size > 0 &&
        (base < fresh.min_key_ ||
         base + static_cast<int64_t>(size) - 1 > fresh.max_key_))
      return Status::InvalidArgument("sketch: store base outside key range");
    if (!reader.Fits(size, sizeof(uint64_t)))
      return Status::InvalidArgument("sketch: store counts truncated");
    store->base = base;
    store->counts.resize(static_cast<size_t>(size));
    if (!reader.U64s(store->counts.data(), store->counts.size()))
      return Status::InvalidArgument("sketch: store counts truncated");
  }

  if (!reader.U64(&fresh.zero_count_) || !reader.U64(&fresh.count_) ||
      !reader.U64(&fresh.dropped_) || !reader.F64(&fresh.min_) ||
      !reader.F64(&fresh.max_))
    return Status::InvalidArgument("sketch: truncated tail");

  uint64_t sum = fresh.zero_count_;
  for (const Store* store : {&fresh.negative_, &fresh.positive_}) {
    for (uint64_t c : store->counts) {
      if (c > fresh.count_ || sum > fresh.count_ - c)
        return Status::InvalidArgument("sketch: bucket counts exceed total");
      sum += c;
    }
  }
  if (sum != fresh.count_)
    return Status::InvalidArgument("sketch: bucket counts do not sum to total");
  if (fresh.count_ > 0) {
    if (!std::isfinite(fresh.min_) || !std::isfinite(fresh.max_) ||
        fresh.min_ > fresh.max_)
      return Status::InvalidArgument("sketch: invalid min/max");
  } else if (fresh.min_ != 0.0 || fresh.max_ != 0.0) {
    return Status::InvalidArgument("sketch: empty sketch with nonzero extremes");
  }

  *this = std::move(fresh);
  return Status::Ok();
}

}  // namespace otfair::stats
