// Top-level GPU configuration.
//
// Defaults approximate the paper's evaluated platforms: a 6-SM GPU
// (GPGPU-Sim config in Fig. 4; the GTX 1050 Ti of Fig. 5 also has 6 SMs).
#pragma once

#include "common/fields.h"
#include "common/types.h"
#include "memsys/params.h"

namespace higpu::sim {

/// Simulation-core engine selection.
///
/// * kEvent — event-driven: SMs report the earliest cycle at which any
///   resident warp can become ready (scoreboard release, memory-response
///   arrival, unit availability, barrier release) and the GPU advances the
///   clock directly to the next such event, fast-forwarding quiescent
///   cycles. Bit-identical in results, cycle counts and statistics to the
///   dense loop.
/// * kDense — the classic tick loop: every SM is stepped on every cycle.
///   Kept as the reference implementation for the dual-engine equivalence
///   test and as a debugging fallback.
enum class SimEngine { kEvent, kDense };
constexpr SimEngine enum_last(SimEngine) { return SimEngine::kDense; }

struct GpuParams {
  SimEngine engine = SimEngine::kEvent;

  u32 num_sms = 6;
  u32 warp_size = 32;

  // Per-SM occupancy limits.
  u32 max_warps_per_sm = 48;
  u32 max_blocks_per_sm = 16;
  u32 regfile_per_sm = 64 * 1024;      // 32-bit registers
  u32 shared_per_sm = 48 * 1024;       // bytes

  // Issue stage.
  u32 num_warp_schedulers = 2;

  // Execution latencies (cycles until writeback).
  u32 sp_latency = 6;
  u32 sfu_latency = 16;
  u32 sfu_interval = 4;  // SFU initiation interval (cycles between issues)

  // Host->GPU kernel dispatch is intrinsically serial (paper §IV.A): the
  // i-th launched kernel becomes visible to the kernel scheduler this many
  // cycles after the previous one (~2 us of driver/dispatch path at 1.4 GHz).
  u32 launch_gap_cycles = 3000;

  // Core clock, used to convert cycles to wall time in the platform model.
  double clock_ghz = 1.4;

  memsys::MemParams mem;

  bool operator==(const GpuParams& other) const = default;
};

template <FieldsOf<GpuParams> S, class V>
void visit_fields(S& g, V&& v) {
  v("engine", g.engine);
  v("num_sms", g.num_sms);
  v("warp_size", g.warp_size);
  v("max_warps_per_sm", g.max_warps_per_sm);
  v("max_blocks_per_sm", g.max_blocks_per_sm);
  v("regfile_per_sm", g.regfile_per_sm);
  v("shared_per_sm", g.shared_per_sm);
  v("num_warp_schedulers", g.num_warp_schedulers);
  v("sp_latency", g.sp_latency);
  v("sfu_latency", g.sfu_latency);
  v("sfu_interval", g.sfu_interval);
  v("launch_gap_cycles", g.launch_gap_cycles);
  v("clock_ghz", g.clock_ghz);
  v("mem", g.mem);
}

}  // namespace higpu::sim
