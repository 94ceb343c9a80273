// The three phases every run goes through, on the workload's mixture:
// serve_tcp (the networked serving tier), plan_lifecycle (design,
// redesign and recovery) and archive_repair (offline repair of a whole
// archive). An untraced run interleaves them in rounds and then lets each
// add its end-to-end metrics; each Trace* function runs a phase untraced
// and then traced, and adds the per-layer metrics of the layers it
// drives.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <memory>

#include "bench_util.h"
#include "core/designer.h"
#include "core/repair_plan.h"

namespace perfbench {

/// Shared input geometry: the paper's mixture widened to 8 features,
/// designed from 3000 research rows at n_Q = 512 (the perf_bench design
/// configuration, so the numbers line up with its rows).
inline constexpr size_t kDim = 8;
inline constexpr size_t kResearchRows = 3000;
inline constexpr size_t kNq = 512;

/// DesignDistributionalRepair at n_Q = kNq on `threads` lanes, inside a
/// "designer.design" span. Dies on failure (inputs are generated, so a
/// design failure is a defect, not a measurement).
otfair::core::RepairPlanSet DesignPlans(const data::Dataset& research, int threads);

/// One untraced phase, run in rounds interleaved with the other phases so
/// each phase's samples spread over the whole run.
class Phase {
 public:
  Phase() = default;
  virtual ~Phase() = default;
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
  virtual void Round(Report* report) = 0;
  /// Checks what needs all rounds and adds the phase's metrics.
  virtual void Finish(Report* report) = 0;
};

std::unique_ptr<Phase> MakeServePhase(const RunConfig& config, int rounds);
std::unique_ptr<Phase> MakeLifecyclePhase(const RunConfig& config, int rounds);
std::unique_ptr<Phase> MakeArchivePhase(const RunConfig& config);

void TraceServeTcp(const RunConfig& config, double seconds, Report* report);
void TracePlanLifecycle(const RunConfig& config, Report* report);
void TraceArchiveRepair(const RunConfig& config, Report* report);

/// Feeds every correctness check a corrupted input and verifies it
/// fires; returns the process exit code.
int RunSelfTest(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
