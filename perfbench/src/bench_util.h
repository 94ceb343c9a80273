// Shared pieces of the benchmark: run configuration, the result
// report, timing and memory probes, sample summaries, the seeded input
// generators, and span self-time analysis for traced runs.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "obs/trace.h"

namespace perfbench {

namespace data = otfair::data;

/// What one invocation was asked to do.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Protected-attribute levels of the workload's mixture (2 or 4).
  size_t s_levels = 2;
  /// Tiny inputs and short phases: a harness check, not a measurement.
  /// Output checks still fail the run; the timing-validity checks (load
  /// generator, layer sums) only print.
  bool smoke = false;
  /// Where traced runs write their Perfetto JSON.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The run's verdict and numbers; printed as the final JSON line.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Records a metric and echoes it as a human-readable line. `note`
  /// (direction, sample count, ...) goes only into the echo.
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// A correctness check failed: the run is marked incorrect.
  void Fail(const std::string& why);
  /// Counts one attempted operation; `ok == false` also counts a failure.
  void Op(bool ok, const std::string& what = "");
  std::string ToJson() const;
};

[[noreturn]] void Die(const std::string& message);

using Clock = std::chrono::steady_clock;
double SecondsSince(Clock::time_point start);
double ThreadCpuSeconds();
double ProcessCpuSeconds();
double PeakRssMib();

/// Timing summary: the median plus the highest of the percentiles
/// {99.9, 99, 95, 90, 75} that still has at least ten samples beyond it.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail_pct = 50.0;
  double tail = 0.0;
};
Summary Summarize(std::vector<double> values);
/// Nearest-rank percentile of `values` (copied and sorted).
double Percentile(std::vector<double> values, double pct);
double Median(std::vector<double> values);
/// Echo suffix like "p50 of n=123, p90=4.5".
std::string SummaryNote(const Summary& summary, const char* direction);

/// Deterministic sub-seed derivation (splitmix-style mixing).
uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// `n` rows of the workload's mixture at `dim` features: for s_levels = 2
/// the paper's Gaussian mixture (§V-A) with binary S and U, its +-1 mean
/// separation replicated across features (the perf_bench configuration);
/// for s_levels = 4 the |S| = 4, |U| = 2 multi-group layout of the same
/// width.
data::Dataset Simulate(size_t n, size_t dim, size_t s_levels, uint64_t seed);
/// Every feature shifted by `shift`, labels kept.
data::Dataset Shifted(const data::Dataset& dataset, double shift);
/// Rows [begin, end) of `dataset` as a new dataset with the same levels.
data::Dataset Slice(const data::Dataset& dataset, size_t begin, size_t end);

/// Per-name span totals from a traced run. Self time is a span's duration
/// minus the part of it covered by spans nested inside it on the same
/// thread.
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, SpanTotals> AnalyzeSpans(
    const std::vector<otfair::obs::CompletedSpan>& spans);
/// The totals of span `name`; a missing span fails the report and reads
/// as zero.
SpanTotals Lookup(const std::map<std::string, SpanTotals>& totals, const std::string& name,
                  Report* report);
/// Spans collected since `*cursor` (advanced past them). Drains the
/// process-wide collector first.
std::vector<otfair::obs::CompletedSpan> DrainSince(size_t* cursor);
/// Prints the per-name self-time table of `spans` under `title`.
void PrintSelfTimes(const std::string& title, const std::map<std::string, SpanTotals>& totals);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
