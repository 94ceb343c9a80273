#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <utility>

#include "common/matrix.h"
#include "common/rng.h"
#include "sim/gaussian_mixture.h"

namespace perfbench {

namespace {

double ClockSeconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

void Report::Add(const std::string& name, double value, const std::string& unit,
                 const std::string& note) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics.push_back({name, value, unit});
  std::printf("metric %-36s %14.6g %-10s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

void Report::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

void Report::Op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: operation failed: %s\n", what.c_str());
  }
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

Summary Summarize(std::vector<double> values) {
  Summary summary;
  summary.n = values.size();
  summary.p50 = Percentile(values, 50.0);
  summary.tail = summary.p50;
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const double beyond = static_cast<double>(values.size()) * (1.0 - pct / 100.0);
    if (beyond >= 10.0 - 1e-9) {
      summary.tail_pct = pct;
      summary.tail = Percentile(values, pct);
      break;
    }
  }
  return summary;
}

std::string SummaryNote(const Summary& summary, const char* direction) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "(%s is better; n=%zu, p50=%.4g, p%g=%.4g)", direction,
                summary.n, summary.p50, summary.tail_pct, summary.tail);
  return buf;
}

uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t z = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

data::Dataset Simulate(size_t n, size_t dim, size_t s_levels, uint64_t seed) {
  otfair::common::Rng rng(seed);
  if (s_levels != 2) {
    const auto config = otfair::sim::MultiGroupSimConfig::Default(s_levels, 2, dim);
    auto dataset = otfair::sim::SimulateMultiGroupGaussian(n, config, rng);
    if (!dataset.ok()) Die("simulate: " + dataset.status().ToString());
    return std::move(*dataset);
  }
  auto config = otfair::sim::GaussianSimConfig::PaperDefault();
  config.dim = dim;
  config.mean[0][0].assign(dim, -1.0);
  config.mean[0][1].assign(dim, 0.0);
  config.mean[1][0].assign(dim, 1.0);
  config.mean[1][1].assign(dim, 0.0);
  auto dataset = otfair::sim::SimulateGaussianMixture(n, config, rng);
  if (!dataset.ok()) Die("simulate: " + dataset.status().ToString());
  return std::move(*dataset);
}

data::Dataset Shifted(const data::Dataset& dataset, double shift) {
  otfair::common::Matrix features = dataset.features();
  for (size_t i = 0; i < features.size(); ++i) features.data()[i] += shift;
  auto shifted = data::Dataset::Create(std::move(features), dataset.s_labels(),
                                       dataset.u_labels(), dataset.feature_names(), {},
                                       dataset.s_levels(), dataset.u_levels());
  if (!shifted.ok()) Die("shift: " + shifted.status().ToString());
  return std::move(*shifted);
}

data::Dataset Slice(const data::Dataset& dataset, size_t begin, size_t end) {
  const size_t dim = dataset.dim();
  otfair::common::Matrix features(end - begin, dim);
  std::copy(dataset.features().data() + begin * dim, dataset.features().data() + end * dim,
            features.data());
  std::vector<int> s(dataset.s_labels().begin() + static_cast<ptrdiff_t>(begin),
                     dataset.s_labels().begin() + static_cast<ptrdiff_t>(end));
  std::vector<int> u(dataset.u_labels().begin() + static_cast<ptrdiff_t>(begin),
                     dataset.u_labels().begin() + static_cast<ptrdiff_t>(end));
  auto slice = data::Dataset::Create(std::move(features), std::move(s), std::move(u),
                                     dataset.feature_names(), {}, dataset.s_levels(),
                                     dataset.u_levels());
  if (!slice.ok()) Die("slice: " + slice.status().ToString());
  return std::move(*slice);
}

std::map<std::string, SpanTotals> AnalyzeSpans(
    const std::vector<otfair::obs::CompletedSpan>& spans) {
  // Per thread, outer spans sort before the spans they contain (earlier
  // start, or same start and later end); a stack of open spans then gives
  // each span its direct parent.
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const auto& x = spans[a];
    const auto& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.end_ns > y.end_ns;
  });
  std::vector<double> child_ns(spans.size(), 0.0);
  std::vector<size_t> open;
  uint32_t tid = 0;
  for (const size_t i : order) {
    const auto& span = spans[i];
    if (span.tid != tid) {
      open.clear();
      tid = span.tid;
    }
    while (!open.empty() && spans[open.back()].end_ns <= span.start_ns) open.pop_back();
    if (!open.empty() && span.end_ns <= spans[open.back()].end_ns)
      child_ns[open.back()] += static_cast<double>(span.end_ns - span.start_ns);
    open.push_back(i);
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    const double ns = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    ++t.count;
    t.total_ms += ns * 1e-6;
    t.self_ms += (ns - child_ns[i]) * 1e-6;
  }
  return totals;
}

SpanTotals Lookup(const std::map<std::string, SpanTotals>& totals, const std::string& name,
                  Report* report) {
  const auto it = totals.find(name);
  if (it != totals.end()) return it->second;
  report->Fail("traced run recorded no " + name + " span");
  return {};
}

std::vector<otfair::obs::CompletedSpan> DrainSince(size_t* cursor) {
  std::vector<otfair::obs::CompletedSpan> all = otfair::obs::TraceCollector::Global().Drain();
  std::vector<otfair::obs::CompletedSpan> fresh(
      all.begin() + static_cast<ptrdiff_t>(std::min(*cursor, all.size())), all.end());
  *cursor = all.size();
  return fresh;
}

void PrintSelfTimes(const std::string& title, const std::map<std::string, SpanTotals>& totals) {
  std::vector<std::pair<std::string, SpanTotals>> rows(totals.begin(), totals.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.self_ms > b.second.self_ms; });
  std::printf("self time, %s:\n", title.c_str());
  std::printf("  %-32s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, t] : rows)
    std::printf("  %-32s %10llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
}

}  // namespace perfbench
