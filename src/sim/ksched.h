// Kernel (grid) scheduler interface — the pluggable component the paper
// proposes to modify. Implementations (Default, SRRS, HALF-aware) live in
// src/sched; the GPU calls dispatch() once per cycle.
#pragma once

#include <string>

#include "ckpt/serial.h"
#include "common/types.h"

namespace higpu::sim {

class Gpu;

/// Runtime state of one launched kernel, visible to the scheduler.
struct KernelState {
  u32 launch_id = 0;
  Cycle arrival = 0;       // cycle the launch becomes visible to the GPU
  u32 blocks_dispatched = 0;
  u32 blocks_done = 0;
  u32 total_blocks = 0;
  Cycle first_dispatch_cycle = 0;
  Cycle done_cycle = 0;

  bool arrived(Cycle now) const { return now >= arrival; }
  bool started() const { return blocks_dispatched > 0; }
  bool fully_dispatched() const { return blocks_dispatched == total_blocks; }
  bool finished() const { return blocks_done == total_blocks; }
};

template <FieldsOf<KernelState> S, class V>
void visit_fields(S& k, V&& v) {
  v("launch_id", k.launch_id);
  v("arrival", k.arrival);
  v("blocks_dispatched", k.blocks_dispatched);
  v("blocks_done", k.blocks_done);
  v("total_blocks", k.total_blocks);
  v("first_dispatch_cycle", k.first_dispatch_cycle);
  v("done_cycle", k.done_cycle);
}

class IKernelScheduler {
 public:
  virtual ~IKernelScheduler() = default;
  virtual std::string name() const = 0;

  /// Called once per cycle; may dispatch at most one block via
  /// Gpu::try_dispatch_block().
  virtual void dispatch(Gpu& gpu) = 0;

  /// Clear any per-run state (called when the GPU is reset between runs).
  virtual void reset() {}

  /// Checkpoint participation: dispatch cursors are behavioural state (they
  /// decide block placement), so schedulers serialize them for bit-exact
  /// resumption. Stateless schedulers keep the no-op defaults.
  virtual void save_state(ckpt::Writer& w) const { (void)w; }
  virtual void restore_state(ckpt::Reader& r) { (void)r; }
};

}  // namespace higpu::sim
