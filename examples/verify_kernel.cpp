// Standalone static-verification gate: run workloads just far enough to
// push every kernel they build through the launch-gate analyzer, print the
// structured reports, and fail (exit 1) if any kernel carries an
// error-severity diagnostic. CI runs `verify_kernel --all` as the
// suite-stays-clean check.
//
//   $ ./verify_kernel --all                 # all 19 workloads, test scale
//   $ ./verify_kernel hotspot bfs --json    # machine-readable reports
//   $ ./verify_kernel gaussian --scale=bench --seed=7
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exp/campaign.h"
#include "isa/verify/verify.h"
#include "runtime/device.h"
#include "workloads/workload.h"

namespace {

using namespace higpu;

int usage() {
  std::printf(
      "usage: verify_kernel <workload...> | --all [options]\n"
      "Statically verifies every kernel the named workloads launch and\n"
      "exits non-zero if any carries an error-severity diagnostic.\n"
      "options:\n"
      "  --all                verify every registered workload\n"
      "  --scale=test|bench   problem size driving kernel shapes (default:\n"
      "                       test; grid/block dims sharpen the analysis)\n"
      "  --seed=N             input-generation seed (default: 2019)\n"
      "  --json               print one JSON report object per kernel\n"
      "  --quiet              only print kernels with diagnostics\n");
  return 2;
}

/// A verify report detached from the device that produced it (the pinned
/// program in Device::VerifyRecord dies with the scenario's device).
struct KernelReport {
  std::string workload;
  sim::Dim3 grid, block;
  isa::verify::Result result;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  workloads::Scale scale = workloads::Scale::kTest;
  u64 seed = 2019;
  bool json = false;
  bool quiet = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--all") {
        names = workloads::all_names();
      } else if (arg.rfind("--scale=", 0) == 0) {
        scale = workloads::parse_scale(arg.substr(8));
      } else if (arg.rfind("--seed=", 0) == 0) {
        seed = std::stoull(arg.substr(7));
      } else if (arg == "--json") {
        json = true;
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (!arg.empty() && arg[0] == '-') {
        std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
        return usage();
      } else {
        names.push_back(arg);
      }
    }
    if (names.empty()) return usage();

    std::vector<KernelReport> reports;
    for (const std::string& name : names) {
      exp::ScenarioSpec spec;
      spec.workload = name;
      spec.scale = scale;
      spec.seed = seed;
      spec.redundancy = core::RedundancySpec::baseline();

      const exp::ScenarioResult r = exp::run_scenario(
          spec, 0,
          [&](runtime::Device& dev, workloads::Workload&,
              core::ExecSession&) {
            for (const runtime::Device::VerifyRecord& rec :
                 dev.verify_reports())
              reports.push_back(
                  KernelReport{name, rec.grid, rec.block, rec.result});
          });
      // A refused launch fails the scenario; its error is the VerifyError,
      // whose what() embeds the full report.
      if (!r.ok) {
        std::fprintf(stderr, "error: workload '%s' failed to run: %s\n",
                     name.c_str(), r.error.c_str());
        return 1;
      }
    }

    u32 errors = 0, warnings = 0;
    for (const KernelReport& kr : reports) {
      errors += kr.result.count(isa::verify::Severity::kError);
      warnings += kr.result.count(isa::verify::Severity::kWarning);
      if (json) {
        std::printf("%s\n", kr.result.to_json().c_str());
        continue;
      }
      const bool clean = kr.result.diags.empty();
      if (quiet && clean) continue;
      std::printf("%-5s %-16s kernel '%s' grid %ux%ux%u block %ux%ux%u\n",
                  kr.result.ok() ? "ok" : "FAIL", kr.workload.c_str(),
                  kr.result.kernel.c_str(), kr.grid.x, kr.grid.y, kr.grid.z,
                  kr.block.x, kr.block.y, kr.block.z);
      if (!clean) std::printf("%s", kr.result.to_string().c_str());
    }
    if (!json)
      std::printf("%zu kernel(s) analyzed across %zu workload(s): "
                  "%u error(s), %u warning(s)\n",
                  reports.size(), names.size(), errors, warnings);
    return errors > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
