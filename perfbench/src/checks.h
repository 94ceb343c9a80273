// Correctness checks of the benchmark. Each returns an empty string when
// the output is right and a description of the first defect otherwise;
// the workloads fail the run on a non-empty result, and the self-test
// feeds each check a deliberately corrupted input to prove it fires.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"
#include "core/repairer.h"
#include "data/dataset.h"
#include "serve/repair_service.h"

namespace perfbench {

/// Upper bound on AggregateE(repaired) / AggregateE(archive) for the
/// archive_repair workload. The paper's repair quenches the s|u
/// dependence by about an order of magnitude; a ratio above this means
/// the repair stopped working.
inline constexpr double kERatioBound = 0.25;
/// E-metric bound on service-repaired post-shift rows after a redesign of
/// a binary plan (the acceptance threshold of the self-heal integration
/// test).
inline constexpr double kHealedEBound = 0.05;
/// The same bound for the |S| = 4 configuration (see plan_lifecycle.cc).
inline constexpr double kHealedEBoundFourLevel = 0.1;

/// `rows` of `output` must equal the scalar replay of `input` row i
/// through `repairer` with `Rng::ForStream(seed, i)`, channels in k order
/// — the documented equivalent of RepairDataset's row i.
std::string CheckArchiveRows(const otfair::core::OffSampleRepairer& repairer, uint64_t seed,
                             const otfair::data::Dataset& input,
                             const otfair::data::Dataset& output,
                             const std::vector<size_t>& rows);

std::string CheckERatio(double e_ratio);

/// Parses `ok <session> <row> <y_1> ... <y_d>` response lines from
/// `bytes` and checks that every row in [row_begin, row_end) of
/// `session` is answered exactly once, that nothing else is, and that the
/// repaired values equal `expected` (indexed by row) as doubles.
std::string CheckServeResponses(const std::string& bytes, uint64_t session,
                                uint64_t row_begin, uint64_t row_end,
                                const otfair::common::Matrix& expected);

/// A redesign must raise the plan version and bring the E-metric of the
/// post-shift rows it repairs under `bound`.
std::string CheckRedesign(uint64_t version_before, uint64_t version_after, double healed_e,
                          double bound);

/// Recovers a service from the newest checkpoint in `dir`:
/// RecoverNewestCheckpoint -> RepairService::Create (with the
/// checkpointed seed and plan version) -> RestoreObservedState. Each
/// stage runs inside a benchmark span.
otfair::common::Result<std::unique_ptr<otfair::serve::RepairService>> RecoverService(
    const std::string& dir, const otfair::serve::ServiceOptions& base);

/// The recovered service must serve the source's plan version and repair
/// `probe` bit-identically to the source.
std::string CheckRecoveredMatches(otfair::serve::RepairService& source,
                                  otfair::serve::RepairService& recovered,
                                  const std::vector<otfair::serve::RowRequest>& probe);

/// Requests for rows [begin, end) of `dataset` as session `session`.
std::vector<otfair::serve::RowRequest> MakeRequests(const otfair::data::Dataset& dataset,
                                                    size_t begin, size_t end,
                                                    uint64_t session);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
