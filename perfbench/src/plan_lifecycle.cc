// plan_lifecycle phase: the control plane, with almost no row traffic.
// Each cycle designs plans from a fresh research set, streams a
// mean-shifted block into a RepairService until drift trips (untimed),
// redesigns through to a hot reload, writes a checkpoint (untimed) and
// times recovery from it. The designer, KDE above all, does most of the
// work; the repairer only builds tables.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "common/parallel.h"
#include "core/marginals.h"
#include "core/support_grid.h"
#include "fairness/emetric.h"
#include "ot/barycenter.h"
#include "ot/solver.h"
#include "serve/checkpointer.h"
#include "serve/redesigner.h"
#include "serve/repair_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

using otfair::serve::RepairService;

/// Lanes for design and redesign: the calling thread plus one pool
/// worker. The redesigner's own thread is stopped before the
/// checkpointer's starts, so a cycle never holds more than three threads.
constexpr int kThreads = 2;
/// Shifted rows available to trip drift, streamed in chunks until the
/// service reports drift; and fresh shifted rows the healed E is measured
/// on (the post-shift tail size of the self-heal integration test).
constexpr size_t kShiftRows = 20'000;
constexpr size_t kShiftChunk = 2'000;
constexpr size_t kHealRows = 6'000;
constexpr double kShift = 2.0;
constexpr size_t kProbeRows = 256;
/// Fewest designs a run times, so design_ms_p90 has ten samples beyond it.
constexpr size_t kMinCycles = 100;

data::Dataset Research(const RunConfig& config, uint64_t cycle) {
  return Simulate(kResearchRows, kDim, config.s_levels, SubSeed(config.seed, 10, cycle));
}

data::Dataset ShiftedBlock(const RunConfig& config, uint64_t cycle, uint64_t block,
                           size_t rows) {
  return Shifted(Simulate(rows, kDim, config.s_levels, SubSeed(config.seed, 20 + block, cycle)),
                 kShift);
}

otfair::serve::ServiceOptions ServiceOptionsFor(uint64_t seed, uint64_t cycle) {
  otfair::serve::ServiceOptions options;
  options.seed = SubSeed(seed, 30, cycle);
  options.threads = 1;
  options.sketch_sample_every = 1;
  return options;
}

std::unique_ptr<RepairService> CreateService(otfair::core::RepairPlanSet plans,
                                             const otfair::serve::ServiceOptions& options) {
  auto service = RepairService::Create(std::move(plans), options);
  if (!service.ok()) Die("service: " + service.status().ToString());
  return std::move(*service);
}

/// Repairs `requests` through the service; false if any row failed.
bool Stream(RepairService& service, const std::vector<otfair::serve::RowRequest>& requests,
            std::vector<otfair::serve::RowResponse>* responses) {
  service.RepairBatch(requests.data(), requests.size(), responses);
  for (const auto& response : *responses)
    if (!response.status.ok()) return false;
  return true;
}

/// AggregateE of the service-repaired rows of `block`.
double RepairedE(const data::Dataset& block,
                 const std::vector<otfair::serve::RowResponse>& responses) {
  otfair::common::Matrix features(block.size(), block.dim());
  for (size_t i = 0; i < responses.size(); ++i)
    std::copy(responses[i].repaired.begin(), responses[i].repaired.end(), features.row(i));
  auto repaired = data::Dataset::Create(std::move(features), block.s_labels(),
                                        block.u_labels(), block.feature_names(), {},
                                        block.s_levels(), block.u_levels());
  if (!repaired.ok()) Die("healed dataset: " + repaired.status().ToString());
  auto e = otfair::fairness::AggregateE(*repaired);
  if (!e.ok()) Die("E-metric: " + e.status().ToString());
  return *e;
}

/// The binary configuration is held to the self-heal integration test's
/// bound. |S| = 4 gets a looser one: its E is the worst of six class
/// pairs, and even a plan designed straight from research data leaves it
/// at 0.03-0.045 on this mixture (against about 2.2 unrepaired).
double HealedEBound(const data::Dataset& block) {
  return block.s_levels() == 2 ? kHealedEBound : kHealedEBoundFourLevel;
}

void RemoveDir(const std::string& dir) {
  for (uint64_t generation = 1; generation <= 4; ++generation)
    ::unlink(otfair::serve::CheckpointPath(dir, generation).c_str());
  ::rmdir(dir.c_str());
}

struct CycleTimes {
  double design_ms = 0.0;
  double redesign_ms = 0.0;
  double recover_ms = 0.0;
  uint64_t reloads = 0;
  double checkpoint_bytes = 0.0;
};

/// One lifecycle cycle. Timed sections: design, AttemptRedesign,
/// recovery. Everything else (input generation, drift streaming, E and
/// probe checks, the checkpoint write) is untimed.
bool RunCycle(const RunConfig& config, uint64_t cycle, int threads, const std::string& dir,
              bool snapshot_span, Report* report, CycleTimes* times) {
  const data::Dataset research = Research(config, cycle);
  const data::Dataset drift_block = ShiftedBlock(config, cycle, 0, kShiftRows);
  const data::Dataset heal_block = ShiftedBlock(config, cycle, 1, kHealRows);
  const otfair::serve::ServiceOptions options = ServiceOptionsFor(config.seed, cycle);

  Clock::time_point start = Clock::now();
  otfair::core::RepairPlanSet plans = DesignPlans(research, threads);
  times->design_ms = SecondsSince(start) * 1e3;
  report->Op(true);

  std::unique_ptr<RepairService> service = CreateService(std::move(plans), options);
  otfair::serve::RedesignerOptions heal_options;
  heal_options.poll_interval_ms = 1 << 30;  // the loop stays idle; attempts are explicit
  heal_options.design.threads = threads;
  auto redesigner = otfair::serve::Redesigner::Create(service.get(), heal_options);
  if (!redesigner.ok()) Die("redesigner: " + redesigner.status().ToString());

  std::vector<otfair::serve::RowResponse> responses;
  size_t streamed = 0;
  bool rows_ok = true;
  while (!service->Health().drifted && streamed < drift_block.size()) {
    const size_t end = std::min(streamed + kShiftChunk, drift_block.size());
    rows_ok &= Stream(*service, MakeRequests(drift_block, streamed, end, 0), &responses);
    streamed = end;
  }
  const bool drifted = service->Health().drifted;
  report->Op(rows_ok && drifted, "drift streaming (" + std::to_string(streamed) + " rows)");
  if (!drifted) report->Fail("cycle " + std::to_string(cycle) + ": drift never tripped");
  if (!rows_ok || !drifted) return false;

  if (snapshot_span) {
    OTFAIR_TRACE_SPAN("redesigner.sketch_snapshot");
    service->SketchSnapshot();
  }
  const uint64_t version_before = service->plan_version();
  start = Clock::now();
  const auto status = [&] {
    OTFAIR_TRACE_SPAN("redesigner.attempt");
    return (*redesigner)->AttemptRedesign();
  }();
  times->redesign_ms = SecondsSince(start) * 1e3;
  times->reloads = service->plan_version() > version_before ? 1 : 0;
  (*redesigner)->Stop();
  report->Op(status.ok(), "AttemptRedesign: " + status.ToString());
  if (!status.ok()) return false;
  rows_ok = Stream(*service, MakeRequests(heal_block, 0, heal_block.size(), 1), &responses);
  std::string problem = rows_ok ? CheckRedesign(version_before, service->plan_version(),
                                                RepairedE(heal_block, responses),
                                                HealedEBound(heal_block))
                                : "healed rows failed to repair";
  if (!problem.empty()) {
    report->Fail("cycle " + std::to_string(cycle) + ": " + problem);
    return false;
  }

  {
    otfair::serve::CheckpointerOptions checkpoint_options;
    checkpoint_options.dir = dir;
    checkpoint_options.interval_ms = 1 << 30;  // explicit WriteNow only
    checkpoint_options.keep = 1;
    auto checkpointer = otfair::serve::Checkpointer::Create(service.get(), checkpoint_options,
                                                            redesigner->get());
    if (!checkpointer.ok()) Die("checkpointer: " + checkpointer.status().ToString());
    const auto written = (*checkpointer)->WriteNow();
    if (!written.ok()) Die("checkpoint write: " + written.ToString());
    struct stat st{};
    const std::string path = otfair::serve::CheckpointPath(dir, (*checkpointer)->generation());
    if (::stat(path.c_str(), &st) == 0) times->checkpoint_bytes = static_cast<double>(st.st_size);
  }
  start = Clock::now();
  auto recovered = RecoverService(dir, ServiceOptionsFor(config.seed, cycle));
  times->recover_ms = SecondsSince(start) * 1e3;
  RemoveDir(dir);
  report->Op(recovered.ok(), "recovery: " + recovered.status().ToString());
  if (!recovered.ok()) return false;
  problem = CheckRecoveredMatches(*service, **recovered,
                                  MakeRequests(heal_block, 0, kProbeRows, 2));
  if (!problem.empty()) {
    report->Fail("cycle " + std::to_string(cycle) + ": " + problem);
    return false;
  }
  return true;
}

std::string CheckpointDir(const RunConfig& config) {
  return config.out_dir + "/ckpt-" + std::to_string(::getpid());
}

/// Algorithm 1 replayed stage by stage through the designer's public
/// stage functions, each stage inside its own span, exactly as
/// DesignDistributionalRepair runs them per (u, k) channel. Returns the
/// number of KDE (InterpolateMarginal) calls; dies if the replayed
/// channels differ from `plans`.
size_t ReplayDesignStages(const data::Dataset& research,
                          const otfair::core::RepairPlanSet& plans) {
  const size_t s_levels = research.s_levels();
  const auto solver = otfair::ot::DefaultSolver();
  size_t kde_calls = 0;
  for (size_t u = 0; u < research.u_levels(); ++u) {
    const std::vector<size_t> all = research.UIndices(static_cast<int>(u));
    std::vector<std::vector<size_t>> by_s(s_levels);
    for (size_t s = 0; s < s_levels; ++s)
      by_s[s] = research.GroupIndices({static_cast<int>(u), static_cast<int>(s)});
    for (size_t k = 0; k < research.dim(); ++k) {
      const otfair::core::ChannelPlan& want = plans.At(static_cast<int>(u), k);
      auto grid = [&] {
        OTFAIR_TRACE_SPAN("designer.grid");
        return otfair::core::SupportGrid::FromSamples(research.FeatureColumn(k, all), kNq);
      }();
      if (!grid.ok()) Die("replay grid: " + grid.status().ToString());
      std::vector<otfair::ot::DiscreteMeasure> marginals;
      {
        OTFAIR_TRACE_SPAN("designer.kde");
        for (size_t s = 0; s < s_levels; ++s) {
          auto marginal =
              otfair::core::InterpolateMarginal(research.FeatureColumn(k, by_s[s]), *grid);
          if (!marginal.ok()) Die("replay kde: " + marginal.status().ToString());
          marginals.push_back(std::move(*marginal));
          ++kde_calls;
        }
      }
      auto barycenter = [&] {
        OTFAIR_TRACE_SPAN("designer.barycenter");
        return s_levels == 2 ? otfair::ot::QuantileBarycenterOnGrid(
                                   marginals[0], marginals[1], plans.target_t(), grid->points())
                             : otfair::ot::QuantileBarycenterOnGrid(marginals, plans.lambdas(),
                                                                   grid->points());
      }();
      if (!barycenter.ok()) Die("replay barycenter: " + barycenter.status().ToString());
      bool same = barycenter->weights() == want.barycenter.weights();
      {
        OTFAIR_TRACE_SPAN("designer.solve");
        for (size_t s = 0; s < s_levels; ++s) {
          auto plan = solver->Solve1DSparse(marginals[s], *barycenter);
          if (!plan.ok()) Die("replay solve: " + plan.status().ToString());
          same = same && plan->MaxAbsDiff(want.plan[s]) == 0.0;
        }
      }
      if (!same) Die("designer stage replay diverged from DesignDistributionalRepair");
    }
  }
  return kde_calls;
}

}  // namespace

otfair::core::RepairPlanSet DesignPlans(const data::Dataset& research, int threads) {
  otfair::core::DesignOptions options;
  options.n_q = kNq;
  options.threads = threads;
  OTFAIR_TRACE_SPAN("designer.design");
  auto plans = otfair::core::DesignDistributionalRepair(research, options);
  if (!plans.ok()) Die("design: " + plans.status().ToString());
  return std::move(*plans);
}

namespace {

/// The untraced phase: at least kMinCycles cycles, an equal share per round.
class LifecyclePhase : public Phase {
 public:
  LifecyclePhase(const RunConfig& config, int rounds)
      : config_(config),
        dir_(CheckpointDir(config)),
        cycles_per_round_(config.smoke ? 1 : (kMinCycles + rounds - 1) / rounds) {
    std::printf("plan_lifecycle: %zu research rows, n_Q=%zu, %d design lanes, %d rounds of "
                "%zu cycles\n",
                kResearchRows, kNq, kThreads, rounds, cycles_per_round_);
  }

  void Round(Report* report) override {
    otfair::common::parallel::SetThreadCount(kThreads);
    for (size_t i = 0; i < cycles_per_round_; ++i) {
      CycleTimes times;
      if (!RunCycle(config_, cycle_++, kThreads, dir_, false, report, &times)) continue;
      design_ms_.push_back(times.design_ms);
      redesign_ms_.push_back(times.redesign_ms);
      recover_ms_.push_back(times.recover_ms);
    }
  }

  void Finish(Report* report) override {
    const Summary design = Summarize(design_ms_);
    report->Add("design_ms_p50", design.p50, "ms", SummaryNote(design, "lower"));
    if (design.tail_pct < 90.0 && !config_.smoke)
      report->Fail("too few designs for design_ms_p90: " + std::to_string(design.n));
    report->Add("design_ms_p90", Percentile(design_ms_, 90.0), "ms",
                SummaryNote(design, "lower"));
    const Summary redesign = Summarize(redesign_ms_);
    report->Add("redesign_ms_p50", redesign.p50, "ms", SummaryNote(redesign, "lower"));
    const Summary recover = Summarize(recover_ms_);
    report->Add("recover_ms_p50", recover.p50, "ms", SummaryNote(recover, "lower"));
  }

 private:
  const RunConfig& config_;
  const std::string dir_;
  const size_t cycles_per_round_;
  uint64_t cycle_ = 0;
  std::vector<double> design_ms_;
  std::vector<double> redesign_ms_;
  std::vector<double> recover_ms_;
};

}  // namespace

std::unique_ptr<Phase> MakeLifecyclePhase(const RunConfig& config, int rounds) {
  return std::make_unique<LifecyclePhase>(config, rounds);
}

void TracePlanLifecycle(const RunConfig& config, Report* report) {
  // Single-lane design in the traced section, so the serial stage replay
  // can be held against the design wall time.
  otfair::common::parallel::SetThreadCount(1);
  const std::string dir = CheckpointDir(config);
  const size_t cycles = config.smoke ? 2 : 8;
  auto& collector = otfair::obs::TraceCollector::Global();
  size_t cursor = 0;
  DrainSince(&cursor);

  auto cycle_ms = [](const CycleTimes& t) { return t.design_ms + t.redesign_ms + t.recover_ms; };
  double untraced_ms = 0.0;
  for (uint64_t cycle = 0; cycle < cycles; ++cycle) {
    CycleTimes times;
    RunCycle(config, cycle, 1, dir, false, report, &times);
    untraced_ms += cycle_ms(times);
  }

  double traced_ms = 0.0;
  double replayed_design_ms = 0.0;
  size_t kde_calls = 0;
  uint64_t attempts = 0;
  uint64_t reloads = 0;
  double checkpoint_bytes = 0.0;
  std::vector<otfair::obs::CompletedSpan> spans;
  for (uint64_t cycle = 0; cycle < cycles; ++cycle) {
    CycleTimes times;
    collector.Enable();
    RunCycle(config, cycle, 1, dir, true, report, &times);
    collector.Disable();
    traced_ms += cycle_ms(times);
    ++attempts;
    reloads += times.reloads;
    checkpoint_bytes += times.checkpoint_bytes;
    // The stage replay runs after the cycle, right after an untraced
    // design of the same research set that it must reproduce and account
    // for.
    const data::Dataset research = Research(config, cycle);
    const Clock::time_point design_start = Clock::now();
    const otfair::core::RepairPlanSet plans = DesignPlans(research, 1);
    replayed_design_ms += SecondsSince(design_start) * 1e3;
    collector.Enable();
    kde_calls += ReplayDesignStages(research, plans);
    collector.Disable();
    const auto fresh = DrainSince(&cursor);
    spans.insert(spans.end(), fresh.begin(), fresh.end());
  }
  const auto totals = AnalyzeSpans(spans);
  PrintSelfTimes("plan_lifecycle", totals);
  auto per = [&](const char* name, double count) {
    return Lookup(totals, name, report).total_ms / count;
  };
  const double n = static_cast<double>(cycles);
  const double design_ms = replayed_design_ms / n;
  const double stages_ms = per("designer.grid", n) + per("designer.kde", n) +
                           per("designer.barycenter", n) + per("designer.solve", n);
  report->Add("designer.grid_ms", per("designer.grid", n), "ms");
  report->Add("designer.kde_ms", per("designer.kde", n), "ms");
  report->Add("designer.barycenter_ms", per("designer.barycenter", n), "ms");
  report->Add("designer.solve_ms", per("designer.solve", n), "ms");
  report->Add("designer.kde_calls", static_cast<double>(kde_calls) / n, "count");
  std::printf("layer sum: designer stages %.3f ms vs design %.3f ms per design\n", stages_ms,
              design_ms);
  if (!(stages_ms > 0.9 * design_ms && stages_ms < 1.1 * design_ms)) {
    const std::string problem = "designer stages do not account for design_ms within 10%";
    if (config.smoke)
      std::printf("smoke run, not a measurement: %s\n", problem.c_str());
    else
      report->Fail(problem);
  }

  report->Add("redesigner.sketch_snapshot_ms", per("redesigner.sketch_snapshot", n), "ms");
  report->Add("redesigner.design_ms", per("redesign_design", n), "ms");
  report->Add("repair_service.reload_ms", per("plan_reload", n), "ms");
  report->Add("redesigner.attempts_per_reload",
              reloads > 0 ? static_cast<double>(attempts) / static_cast<double>(reloads) : 0.0,
              "ratio");
  report->Add("checkpointer.recover_scan_ms", per("checkpointer.recover_scan", n), "ms");
  report->Add("repair_service.create_ms", per("repair_service.create", n), "ms");
  report->Add("repair_service.restore_ms", per("repair_service.restore", n), "ms");
  report->Add("checkpointer.file_bytes", checkpoint_bytes / n, "bytes");
  report->Add("trace.plan_lifecycle_overhead", traced_ms / untraced_ms, "ratio",
              "(traced / untraced design + redesign + recover)");
}

}  // namespace perfbench
