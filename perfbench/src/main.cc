// The perfbench benchmark. Usage:
//
//   perfbench --workload <paper_binary|four_level> --seed <n> --seconds <s>
//             --trace <0|1> [--smoke] [--out_dir <dir>]
//   perfbench --selftest [--out_dir <dir>]
//
// A workload is the mixture the inputs are drawn from: the paper's binary
// protected attribute, or four protected levels. Every run takes that
// mixture through the three phases (serve_tcp, plan_lifecycle,
// archive_repair), so every run reports every end-to-end metric; traced
// runs report every per-layer metric and write a Perfetto trace. The last
// line of stdout is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_binary|four_level> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--out_dir <dir>]\n"
               "       perfbench --selftest [--out_dir <dir>]\n");
}

/// Rounds of an untraced run: each round runs one serve_tcp step, a fifth
/// of the plan_lifecycle cycles and one archive_repair pass.
constexpr int kRounds = 5;
constexpr int kSmokeRounds = 2;

/// Accepts "--name value" and "--name=value".
bool ParseArgs(int argc, char** argv, perfbench::RunConfig* config, bool* selftest) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    arg = arg.substr(2);
    if (arg == "smoke" || arg == "selftest") {
      (arg == "smoke" ? config->smoke : *selftest) = true;
      continue;
    }
    std::string value;
    if (const size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (arg == "workload") {
      config->workload = value;
    } else if (arg == "seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "trace") {
      config->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (arg == "out_dir") {
      config->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool selftest = false;
  if (!ParseArgs(argc, argv, &config, &selftest)) {
    Usage();
    return 2;
  }
  if (selftest) return perfbench::RunSelfTest(config);
  if (!(config.seconds > 0.0)) {
    Usage();
    return 2;
  }

  if (config.workload == "paper_binary") {
    config.s_levels = 2;
  } else if (config.workload == "four_level") {
    config.s_levels = 4;
  } else {
    Usage();
    return 2;
  }

  perfbench::Report report;
  if (!config.trace) {
    // The archive phase builds its repairer up front, which starts the one
    // pool worker every phase shares; serving adds its two workers only
    // while a step runs, so the process never holds more than 4 threads.
    const int rounds = config.smoke ? kSmokeRounds : kRounds;
    std::unique_ptr<perfbench::Phase> phases[] = {
        perfbench::MakeArchivePhase(config), perfbench::MakeServePhase(config, rounds),
        perfbench::MakeLifecyclePhase(config, rounds)};
    for (int round = 0; round < rounds; ++round)
      for (auto& phase : phases) phase->Round(&report);
    for (auto& phase : phases) phase->Finish(&report);
    report.Add("peak_rss_mib", perfbench::PeakRssMib(), "MiB", "(lower is better)");
  } else {
    perfbench::TraceServeTcp(config, config.smoke ? 0.2 : 1.0, &report);
    perfbench::TracePlanLifecycle(config, &report);
    perfbench::TraceArchiveRepair(config, &report);
    auto& collector = otfair::obs::TraceCollector::Global();
    const std::string path = config.out_dir + "/trace-" + config.workload + ".json";
    if (const auto status = collector.WriteChromeTrace(path); !status.ok())
      report.Fail("writing the Perfetto trace: " + status.ToString());
    std::printf("perfetto trace: %s (%llu spans lost to ring overwrite)\n", path.c_str(),
                static_cast<unsigned long long>(collector.dropped_total()));
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
