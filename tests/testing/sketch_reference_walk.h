// The QuantileSketch read path as it was before read tables: Cdf and
// Quantile walk every non-empty bucket in ascending value order and
// compute each bucket's value with pow on the way. Tests compare the
// table-based reads against it bit for bit. The bucket state is read back
// through SerializeTo, which writes the sketch's complete state, so the
// walk needs no access to the sketch's internals.

#ifndef OTFAIR_TESTS_TESTING_SKETCH_REFERENCE_WALK_H_
#define OTFAIR_TESTS_TESTING_SKETCH_REFERENCE_WALK_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/byte_io.h"
#include "stats/quantile_sketch.h"

namespace otfair::testing {

class ReferenceSketchWalk {
 public:
  explicit ReferenceSketchWalk(const stats::QuantileSketch& sketch) {
    std::string bytes;
    common::ByteWriter writer(&bytes);
    sketch.SerializeTo(writer);
    common::ByteReader reader(bytes);
    double alpha = 0.0;
    bool ok = reader.F64(&alpha);
    // The serialized alpha is the sketch's clamped one, so this is the
    // sketch's own gamma, bit for bit.
    gamma_ = (1.0 + alpha) / (1.0 - alpha);
    for (Store* store : {&negative_, &positive_}) {
      uint64_t size = 0;
      ok = ok && reader.I32(&store->base) && reader.U64(&size);
      if (!ok) break;
      store->counts.resize(static_cast<size_t>(size));
      ok = reader.U64s(store->counts.data(), store->counts.size());
    }
    uint64_t dropped = 0;
    ok = ok && reader.U64(&zero_count_) && reader.U64(&count_) && reader.U64(&dropped) &&
         reader.F64(&min_) && reader.F64(&max_);
    complete_ = ok && reader.exhausted();
  }

  /// False when the serialized state could not be read back.
  bool complete() const { return complete_; }

  /// Every non-empty bucket's value estimate, ascending.
  std::vector<double> BucketValues() const {
    std::vector<double> values;
    ForEachBucketAscending([&](double value, uint64_t) { values.push_back(value); });
    return values;
  }

  double Quantile(double p) const {
    if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
    p = std::min(1.0, std::max(0.0, p));
    if (p <= 0.0) return min_;
    if (p >= 1.0) return max_;
    const uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count_ - 1));
    uint64_t cumulative = 0;
    double result = max_;
    bool found = false;
    ForEachBucketAscending([&](double value, uint64_t n) {
      if (found) return;
      cumulative += n;
      if (cumulative > rank) {
        result = value;
        found = true;
      }
    });
    return std::min(max_, std::max(min_, result));
  }

  double Cdf(double x) const {
    if (count_ == 0) return 0.0;
    if (x < min_) return 0.0;
    if (x >= max_) return 1.0;
    uint64_t below = 0;
    ForEachBucketAscending([&](double value, uint64_t n) {
      if (value <= x) below += n;
    });
    return static_cast<double>(below) / static_cast<double>(count_);
  }

 private:
  struct Store {
    std::vector<uint64_t> counts;
    int32_t base = 0;
  };

  double BucketValue(int key) const { return 2.0 * std::pow(gamma_, key) / (gamma_ + 1.0); }

  template <typename Fn>
  void ForEachBucketAscending(Fn&& fn) const {
    for (size_t i = negative_.counts.size(); i-- > 0;) {
      if (negative_.counts[i] > 0)
        fn(-BucketValue(negative_.base + static_cast<int>(i)), negative_.counts[i]);
    }
    if (zero_count_ > 0) fn(0.0, zero_count_);
    for (size_t i = 0; i < positive_.counts.size(); ++i) {
      if (positive_.counts[i] > 0)
        fn(BucketValue(positive_.base + static_cast<int>(i)), positive_.counts[i]);
    }
  }

  double gamma_ = 1.0;
  Store negative_;
  Store positive_;
  uint64_t zero_count_ = 0;
  uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  bool complete_ = false;
};

}  // namespace otfair::testing

#endif  // OTFAIR_TESTS_TESTING_SKETCH_REFERENCE_WALK_H_
