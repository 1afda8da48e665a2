// Workload interface: scaled-down re-implementations of the Rodinia
// benchmarks used in the paper's evaluation (Figs. 4 and 5).
//
// Each workload generates its inputs deterministically, runs its kernels
// through a (possibly redundant) session — including all host<->device
// transfers and DCLS comparisons — and verifies the fetched outputs against
// a CPU reference.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/exec.h"

namespace higpu::workloads {

/// Problem-size scale: kTest keeps unit tests fast; kBench approximates the
/// kernel-shape balance of the original Rodinia inputs.
enum class Scale { kTest = 0, kBench = 1 };
constexpr Scale enum_last(Scale) { return Scale::kBench; }

const char* scale_name(Scale s);
/// Parse "test" / "bench"; throws std::invalid_argument otherwise.
Scale parse_scale(const std::string& s);

/// Execution context handed to Workload::run. It bundles the (possibly
/// redundant) session with the device it drives, so a workload body is
/// written once and runs unchanged at any redundancy level — baseline,
/// DCLS, NMR, with or without fault injection or recovery — the variant
/// wiring (policy, RedundancySpec, fault hooks, trace sinks) is owned by
/// exp::run_scenario, never by the workload or its call sites.
class RunContext {
 public:
  explicit RunContext(core::ExecSession& session) : session_(session) {}

  core::ExecSession& session() { return session_; }
  runtime::Device& device() { return session_.device(); }
  const core::ExecSession::Config& config() const {
    return session_.config();
  }

 private:
  core::ExecSession& session_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Rodinia benchmark name (e.g. "hotspot").
  virtual std::string name() const = 0;

  /// Generate inputs and compute the CPU reference.
  virtual void setup(Scale scale, u64 seed) = 0;

  /// Execute on the device: allocate, upload, launch kernel(s), read back,
  /// compare (the full 5-step flow of paper §IV.A).
  virtual void run(RunContext& ctx) = 0;

  /// Check outputs fetched by run() against the CPU reference.
  virtual bool verify() const = 0;
};

using WorkloadPtr = std::unique_ptr<Workload>;

/// Names of all implemented workloads (full Fig. 5 suite).
std::vector<std::string> all_names();
/// The 11-benchmark subset evaluated on the simulator in Fig. 4.
std::vector<std::string> fig4_names();
/// True if `name` names an implemented workload.
bool is_known(const std::string& name);
/// The error message thrown for an unknown workload name: names the bad
/// input and lists every valid name (shared with ScenarioSpec validation).
std::string unknown_workload_message(const std::string& name);
/// Instantiate by name; throws std::invalid_argument listing the valid
/// names when `name` is unknown.
WorkloadPtr make(const std::string& name);

/// Approximate float comparison used by verifiers (relative + absolute).
bool approx_equal(float a, float b, float tol = 1e-3f);
bool approx_equal(const std::vector<float>& a, const std::vector<float>& b,
                  float tol = 1e-3f);

/// Bit-cast helpers between float vectors and the u32 transfer format.
std::vector<u32> to_bits(const std::vector<float>& v);
std::vector<float> from_bits(const std::vector<u32>& v);

}  // namespace higpu::workloads
