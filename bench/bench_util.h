// Shared harness for the paper-reproduction benches, now a thin veneer over
// the Scenario/Campaign API: describe the run as a ScenarioSpec, execute it
// with exp::run_scenario, and surface the metrics the figures report.
#pragma once

#include <string>

#include "exp/campaign.h"

namespace higpu::bench {

struct RunResult {
  /// GPU cycles consumed by kernel execution (the Fig. 4 metric).
  Cycle kernel_cycles = 0;
  /// End-to-end wall-clock on the modelled platform (the Fig. 5 metric).
  NanoSec elapsed_ns = 0;
  /// Output matched the CPU reference.
  bool verified = false;
  /// Redundant copies compared equal (vacuously true in baseline mode).
  bool outputs_matched = false;
  /// Block-level diversity across all redundant pairs.
  core::DiversityReport diversity;
};

/// One baseline (`redundant` false) or DCLS run of `name`, as the Fig. 4/5
/// and ablation benches compare them.
inline RunResult run_workload(const std::string& name, workloads::Scale scale,
                              sched::Policy policy, bool redundant,
                              u64 seed = 2019,
                              const sim::GpuParams& gpu_params = {}) {
  exp::ScenarioSpec spec;
  spec.workload = name;
  spec.scale = scale;
  spec.seed = seed;
  spec.policy = policy;
  spec.redundancy = redundant ? core::RedundancySpec::dcls()
                              : core::RedundancySpec::baseline();
  spec.gpu = gpu_params;
  const exp::ScenarioResult r = exp::run_scenario(spec);
  RunResult out;
  out.kernel_cycles = r.kernel_cycles;
  out.elapsed_ns = r.elapsed_ns;
  out.verified = r.ok && r.verified;
  out.outputs_matched = r.ok && r.dcls_match;
  out.diversity = r.diversity;
  return out;
}

inline double ms(NanoSec ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace higpu::bench
