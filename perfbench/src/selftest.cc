// Proves each correctness check fires: every check first accepts a clean
// input, then must reject a deliberately corrupted one (a perturbed,
// dropped or duplicated response, a mismatched plan, a truncated
// checkpoint, an unrepaired archive, a redesign that did not land).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "core/repairer.h"
#include "serve/checkpointer.h"
#include "serve/protocol.h"
#include "serve/repair_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct Tally {
  int failures = 0;
  void Expect(const char* name, bool clean_passes, const std::string& corrupted) {
    const bool fired = !corrupted.empty();
    std::printf("selftest %-34s clean:%s corrupted:%s%s%s\n", name,
                clean_passes ? "accepted" : "REJECTED", fired ? "rejected" : "ACCEPTED",
                fired ? " (" : "", fired ? (corrupted + ")").c_str() : "");
    if (!clean_passes || !fired) ++failures;
  }
};

std::unique_ptr<otfair::serve::RepairService> Service(otfair::core::RepairPlanSet plans) {
  auto service = otfair::serve::RepairService::Create(std::move(plans));
  if (!service.ok()) Die("selftest service: " + service.status().ToString());
  return std::move(*service);
}

std::string ServedBytes(otfair::serve::RepairService& service,
                        const std::vector<otfair::serve::RowRequest>& requests) {
  std::vector<otfair::serve::RowResponse> responses;
  service.RepairBatch(requests.data(), requests.size(), &responses);
  std::string bytes;
  for (const auto& response : responses) bytes += otfair::serve::FormatRowResponse(response) + "\n";
  return bytes;
}

/// Replaces the first repaired value of response line `line` with the
/// next representable double: the same spelling length, a different
/// value.
std::string PerturbValue(const std::string& bytes, size_t line) {
  size_t start = 0;
  for (size_t i = 0; i < line; ++i) start = bytes.find('\n', start) + 1;
  size_t value = start;
  for (int field = 0; field < 3; ++field) value = bytes.find(' ', value) + 1;
  const size_t end = bytes.find_first_of(" \n", value);
  const double v = std::stod(bytes.substr(value, end - value));
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::nextafter(v, v + 1.0));
  return bytes.substr(0, value) + buf + bytes.substr(end);
}

std::string DropLine(const std::string& bytes, size_t line, bool duplicate) {
  size_t start = 0;
  for (size_t i = 0; i < line; ++i) start = bytes.find('\n', start) + 1;
  const size_t end = bytes.find('\n', start) + 1;
  const std::string text = bytes.substr(start, end - start);
  return bytes.substr(0, start) + (duplicate ? text + text : "") + bytes.substr(end);
}

}  // namespace

int RunSelfTest(const RunConfig& config) {
  Tally tally;
  const data::Dataset research = Simulate(kResearchRows, kDim, 2, 101);
  const data::Dataset other_research = Simulate(kResearchRows, kDim, 2, 202);
  const data::Dataset archive = Simulate(400, kDim, 2, 303);
  const otfair::core::RepairPlanSet plans = DesignPlans(research, 1);
  const otfair::core::RepairPlanSet other_plans = DesignPlans(other_research, 1);

  // Served responses against the offline repair.
  auto service = Service(plans);
  const uint64_t session = 7;
  otfair::core::RepairOptions offline;
  offline.seed = service->SessionSeed(session);
  auto repairer = otfair::core::OffSampleRepairer::Create(plans, offline);
  if (!repairer.ok()) Die("selftest repairer");
  auto expected = repairer->RepairDataset(archive);
  if (!expected.ok()) Die("selftest offline repair");
  const auto requests = MakeRequests(archive, 0, archive.size(), session);
  const std::string served = ServedBytes(*service, requests);
  auto check = [&](const std::string& bytes) {
    return CheckServeResponses(bytes, session, 0, archive.size(), expected->features());
  };
  const bool clean = check(served).empty();
  tally.Expect("serve: perturbed response value", clean, check(PerturbValue(served, 5)));
  tally.Expect("serve: dropped response", clean, check(DropLine(served, 9, false)));
  tally.Expect("serve: duplicated response", clean, check(DropLine(served, 9, true)));
  auto other_service = Service(other_plans);
  tally.Expect("serve: mismatched plan", clean, check(ServedBytes(*other_service, requests)));

  // Archive rows against the scalar replay.
  auto repaired = repairer->RepairDataset(archive);
  auto other_repairer = otfair::core::OffSampleRepairer::Create(other_plans, offline);
  if (!repaired.ok() || !other_repairer.ok()) Die("selftest archive repair");
  std::vector<size_t> rows;
  for (size_t i = 0; i < archive.size(); i += 7) rows.push_back(i);
  tally.Expect("archive: mismatched plan",
               CheckArchiveRows(*repairer, offline.seed, archive, *repaired, rows).empty(),
               CheckArchiveRows(*other_repairer, offline.seed, archive, *repaired, rows));

  // The quality bounds.
  tally.Expect("archive: unrepaired e_ratio", CheckERatio(0.1).empty(), CheckERatio(1.0));
  tally.Expect("lifecycle: reload did not land", CheckRedesign(1, 2, 0.01, kHealedEBound).empty(),
               CheckRedesign(2, 2, 0.01, kHealedEBound));
  tally.Expect("lifecycle: healed E over bound", CheckRedesign(1, 2, 0.01, kHealedEBound).empty(),
               CheckRedesign(1, 2, 0.2, kHealedEBound));

  // Recovery: an intact checkpoint recovers a matching service; a
  // mismatched plan and a truncated file do not.
  const std::string dir = config.out_dir + "/selftest-ckpt-" + std::to_string(::getpid());
  otfair::serve::CheckpointerOptions checkpoint_options;
  checkpoint_options.dir = dir;
  checkpoint_options.interval_ms = 1 << 30;
  std::string path;
  {
    auto checkpointer = otfair::serve::Checkpointer::Create(service.get(), checkpoint_options);
    if (!checkpointer.ok() || !(*checkpointer)->WriteNow().ok()) Die("selftest checkpoint");
    path = otfair::serve::CheckpointPath(dir, (*checkpointer)->generation());
  }
  const auto probe = MakeRequests(archive, 0, 64, 3);
  auto recovered = RecoverService(dir, {});
  if (!recovered.ok()) Die("selftest: an intact checkpoint did not recover");
  const bool recovered_ok = CheckRecoveredMatches(*service, **recovered, probe).empty();
  tally.Expect("recovery: mismatched plan", recovered_ok,
               CheckRecoveredMatches(*other_service, **recovered, probe));
  if (::truncate(path.c_str(), 100) != 0) Die("selftest truncate");
  auto truncated = RecoverService(dir, {});
  tally.Expect("recovery: truncated checkpoint", recovered_ok,
               truncated.ok() ? CheckRecoveredMatches(*service, **truncated, probe)
                              : truncated.status().ToString());
  ::unlink(path.c_str());
  ::rmdir(dir.c_str());

  std::printf("selftest: %s\n", tally.failures == 0 ? "every check fires" : "FAILED");
  return tally.failures == 0 ? 0 : 1;
}

}  // namespace perfbench
