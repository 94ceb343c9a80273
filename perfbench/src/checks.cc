#include "checks.h"

#include <charconv>
#include <cstdio>
#include <string_view>
#include <utility>

#include "common/rng.h"
#include "obs/trace.h"
#include "serve/checkpointer.h"

namespace perfbench {

using otfair::common::Result;
using otfair::common::Rng;

namespace {

std::string RowTag(uint64_t row) { return "row " + std::to_string(row); }

/// Next space-separated token of `line` starting at `*pos`.
std::string_view NextToken(std::string_view line, size_t* pos) {
  while (*pos < line.size() && line[*pos] == ' ') ++*pos;
  const size_t start = *pos;
  while (*pos < line.size() && line[*pos] != ' ') ++*pos;
  return line.substr(start, *pos - start);
}

template <typename T>
bool ParseToken(std::string_view token, T* out) {
  const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), *out);
  return ec == std::errc() && end == token.data() + token.size();
}

}  // namespace

std::string CheckArchiveRows(const otfair::core::OffSampleRepairer& repairer, uint64_t seed,
                             const otfair::data::Dataset& input,
                             const otfair::data::Dataset& output,
                             const std::vector<size_t>& rows) {
  if (output.size() != input.size() || output.dim() != input.dim())
    return "repaired archive has the wrong shape";
  otfair::core::RepairStats stats;
  for (const size_t i : rows) {
    Rng rng = Rng::ForStream(seed, i);
    for (size_t k = 0; k < input.dim(); ++k) {
      const double want =
          repairer.RepairValueAt(input.u(i), input.s(i), k, input.feature(i, k), rng, stats);
      if (output.feature(i, k) != want)
        return RowTag(i) + " feature " + std::to_string(k) +
               " differs from the scalar replay of the plan";
    }
  }
  return "";
}

std::string CheckERatio(double e_ratio) {
  if (!(e_ratio < kERatioBound)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "e_ratio %.4g is not below the bound %.2g", e_ratio,
                  kERatioBound);
    return buf;
  }
  return "";
}

std::string CheckServeResponses(const std::string& bytes, uint64_t session,
                                uint64_t row_begin, uint64_t row_end,
                                const otfair::common::Matrix& expected) {
  if (row_end > expected.rows()) return "expected outputs do not cover the rows sent";
  const size_t dim = expected.cols();
  std::vector<uint8_t> seen(row_end - row_begin, 0);
  size_t line_start = 0;
  while (line_start < bytes.size()) {
    size_t line_end = bytes.find('\n', line_start);
    if (line_end == std::string::npos) return "response stream ends in a partial line";
    const std::string_view line(bytes.data() + line_start, line_end - line_start);
    line_start = line_end + 1;
    size_t pos = 0;
    if (NextToken(line, &pos) != "ok") return "error response: " + std::string(line);
    uint64_t sid = 0;
    uint64_t row = 0;
    if (!ParseToken(NextToken(line, &pos), &sid) || !ParseToken(NextToken(line, &pos), &row))
      return "unparseable response: " + std::string(line);
    if (sid != session) return RowTag(row) + " answered for the wrong session";
    if (row < row_begin || row >= row_end) return RowTag(row) + " was never sent";
    if (seen[row - row_begin]++ != 0) return RowTag(row) + " answered twice";
    for (size_t k = 0; k < dim; ++k) {
      double value = 0.0;
      if (!ParseToken(NextToken(line, &pos), &value))
        return RowTag(row) + " has a malformed value";
      if (value != expected(row, k))
        return RowTag(row) + " feature " + std::to_string(k) +
               " differs from the offline repair";
    }
    if (!NextToken(line, &pos).empty()) return RowTag(row) + " has extra values";
  }
  for (size_t i = 0; i < seen.size(); ++i)
    if (seen[i] == 0) return RowTag(row_begin + i) + " was never answered";
  return "";
}

std::string CheckRedesign(uint64_t version_before, uint64_t version_after, double healed_e,
                          double bound) {
  if (version_after <= version_before)
    return "redesign did not raise the plan version (" + std::to_string(version_before) +
           " -> " + std::to_string(version_after) + ")";
  if (!(healed_e < bound)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "post-shift E %.4g after redesign is not below %.3g",
                  healed_e, bound);
    return buf;
  }
  return "";
}

Result<std::unique_ptr<otfair::serve::RepairService>> RecoverService(
    const std::string& dir, const otfair::serve::ServiceOptions& base) {
  Result<otfair::serve::RecoveredCheckpoint> recovered = [&] {
    OTFAIR_TRACE_SPAN("checkpointer.recover_scan");
    return otfair::serve::RecoverNewestCheckpoint(dir);
  }();
  if (!recovered.ok()) return recovered.status();
  otfair::serve::ServiceOptions options = base;
  options.seed = recovered->data.seed;
  options.initial_plan_version = recovered->data.plan_version;
  options.sketch_sample_every = recovered->data.sketch_sample_every;
  Result<std::unique_ptr<otfair::serve::RepairService>> service = [&] {
    OTFAIR_TRACE_SPAN("repair_service.create");
    return otfair::serve::RepairService::Create(std::move(recovered->data.plans), options);
  }();
  if (!service.ok()) return service.status();
  {
    OTFAIR_TRACE_SPAN("repair_service.restore");
    const auto status = (*service)->RestoreObservedState(recovered->data.drift_counts,
                                                         recovered->data.sketches);
    if (!status.ok()) return status;
  }
  return service;
}

std::string CheckRecoveredMatches(otfair::serve::RepairService& source,
                                  otfair::serve::RepairService& recovered,
                                  const std::vector<otfair::serve::RowRequest>& probe) {
  if (recovered.plan_version() != source.plan_version())
    return "recovered plan version " + std::to_string(recovered.plan_version()) +
           " differs from the source's " + std::to_string(source.plan_version());
  std::vector<otfair::serve::RowResponse> want;
  std::vector<otfair::serve::RowResponse> got;
  source.RepairBatch(probe.data(), probe.size(), &want);
  recovered.RepairBatch(probe.data(), probe.size(), &got);
  for (size_t i = 0; i < probe.size(); ++i) {
    if (!want[i].status.ok() || !got[i].status.ok()) return "probe row failed to repair";
    if (want[i].repaired != got[i].repaired)
      return "recovered service repairs probe " + RowTag(probe[i].row_index) +
             " differently from its source";
  }
  return "";
}

std::vector<otfair::serve::RowRequest> MakeRequests(const otfair::data::Dataset& dataset,
                                                    size_t begin, size_t end,
                                                    uint64_t session) {
  std::vector<otfair::serve::RowRequest> requests(end - begin);
  for (size_t i = begin; i < end; ++i) {
    otfair::serve::RowRequest& request = requests[i - begin];
    request.session_id = session;
    request.row_index = i;
    request.u = dataset.u(i);
    request.s = dataset.s(i);
    request.features = dataset.Row(i);
  }
  return requests;
}

}  // namespace perfbench
