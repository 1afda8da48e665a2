// Kernel launch descriptor and scheduling hints.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/fields.h"
#include "common/types.h"
#include "isa/program.h"

namespace higpu::sim {

namespace blockexec {
class CompiledTrace;
}  // namespace blockexec

struct Dim3 {
  u32 x = 1, y = 1, z = 1;
  u32 count() const { return x * y * z; }
};

template <FieldsOf<Dim3> S, class V>
void visit_fields(S& d, V&& v) {
  v("x", d.x);
  v("y", d.y);
  v("z", d.z);
}

/// Per-launch knobs consumed by the pluggable kernel scheduler. These are the
/// paper's proposed "software-controlled kernel scheduling" interface:
/// SRRS uses `start_sm`; HALF uses `sm_mask`.
struct SchedHints {
  /// First SM for strict round-robin allocation (SRRS).
  u32 start_sm = 0;
  /// Bitmask of SMs this kernel may use (HALF partitioning). 0 = all SMs.
  u64 sm_mask = 0;

  bool sm_allowed(u32 sm) const {
    return sm_mask == 0 || (sm_mask >> sm) & 1;
  }
};

template <FieldsOf<SchedHints> S, class V>
void visit_fields(S& h, V&& v) {
  v("start_sm", h.start_sm);
  v("sm_mask", h.sm_mask);
}

/// Everything the GPU needs to run one kernel grid.
struct KernelLaunch {
  isa::ProgramPtr program;
  Dim3 grid;
  Dim3 block;
  /// 32-bit parameter words (device pointers and scalars).
  std::vector<u32> params;
  SchedHints hints;
  /// CUDA-like stream: kernels on the same stream execute in launch order;
  /// kernels on different streams may overlap (policy permitting).
  u32 stream = 0;
  /// Free-form tag for reporting (e.g. workload + kernel name).
  std::string tag;
  /// Compiled superinstruction trace, the gate record of every pc.
  /// Derived state: attached by Gpu::launch from the
  /// process-wide cache, never serialized, re-attached on snapshot restore.
  std::shared_ptr<const blockexec::CompiledTrace> trace;

  u32 total_blocks() const { return grid.count(); }
  u32 threads_per_block() const { return block.count(); }
};

/// The snapshot fields of a launch. Its program is saved as an index into
/// the device's program table (sim::Gpu), and its trace is rebuilt.
template <FieldsOf<KernelLaunch> S, class V>
void visit_fields(S& l, V&& v) {
  v("grid", l.grid);
  v("block", l.block);
  v("params", l.params);
  v("hints", l.hints);
  v("stream", l.stream);
  v("tag", l.tag);
}

/// Execution record of one thread block; the raw material for block
/// diversity (core::analyze_block_diversity) and the scheduler built-in
/// self-test.
struct BlockRecord {
  u32 launch_id = 0;
  u32 block_linear = 0;
  u32 sm = 0;           // SM it actually ran on
  u32 intended_sm = 0;  // SM the policy selected (differs under scheduler faults)
  Cycle dispatch_cycle = 0;
  Cycle end_cycle = 0;
};

template <FieldsOf<BlockRecord> S, class V>
void visit_fields(S& r, V&& v) {
  v("launch_id", r.launch_id);
  v("block_linear", r.block_linear);
  v("sm", r.sm);
  v("intended_sm", r.intended_sm);
  v("dispatch_cycle", r.dispatch_cycle);
  v("end_cycle", r.end_cycle);
}

}  // namespace higpu::sim
