// SIMT warp state: per-lane registers, predicate file, reconvergence stack,
// exit mask and an in-order scoreboard.
#pragma once

#include <vector>

#include "common/fields.h"
#include "common/types.h"
#include "isa/program.h"

namespace higpu::sim {

namespace blockexec {
class CompiledTrace;
}  // namespace blockexec

constexpr u32 kWarpSize = 32;
constexpr u32 kFullMask = 0xFFFFFFFFu;

/// One reconvergence-stack entry (classic IPDOM scheme).
struct StackEntry {
  isa::Pc pc = 0;
  isa::Pc rpc = 0;  // pop when pc reaches rpc
  u32 mask = 0;     // lanes owned by this entry
};

template <FieldsOf<StackEntry> S, class V>
void visit_fields(S& e, V&& v) {
  v("pc", e.pc);
  v("rpc", e.rpc);
  v("mask", e.mask);
}

/// A warp resident on an SM. Plain state; all behaviour lives in SmCore.
struct Warp {
  // ---- Slot management ----
  bool active = false;      // slot occupied
  u64 age = 0;              // monotonically increasing activation order (GTO)
  u32 block_slot = 0;       // index of owning ResidentBlock within the SM
  u32 warp_in_block = 0;

  // ---- Program state ----
  /// Compiled trace of the warp's program: the record of every pc, which
  /// gates its issue and is what SmCore::execute runs.
  /// Derived state: set on block acceptance and on snapshot restore, never
  /// serialized. Owned by the KernelLaunch.
  const blockexec::CompiledTrace* ctrace = nullptr;
  u32 valid_mask = 0;                 // lanes that exist (partial last warp)
  u32 exited = 0;                     // lanes that executed EXIT
  std::vector<StackEntry> stack;
  // Struct-of-arrays register files: one contiguous kWarpSize-lane row per
  // architectural register, `regs[r * kWarpSize + lane]`. The row layout is
  // what lets the block engine hand whole rows to width-32 lane kernels
  // (see reg_row / blockexec::run_vkernel).
  std::vector<u32> regs;              // num_regs x kWarpSize, lane-major per reg
  std::vector<u8> preds;              // num_preds x kWarpSize

  // ---- Hazards ----
  bool at_barrier = false;
  struct Pending {
    u16 reg = 0;
    bool is_pred = false;
    Cycle ready = 0;
  };
  std::vector<Pending> pending;  // outstanding register writebacks

  // ---- Stats ----
  u64 instructions = 0;

  // Indexing is deliberately unchecked on this hot path: register and
  // predicate indices are static program fields proven in range before any
  // warp executes — the launch gate refuses every program with an
  // error-severity diagnostic, reg-out-of-range and pred-out-of-range
  // among them — and fault injection corrupts register *values*, never the
  // decoded indices.
  u32& reg_at(u16 r, u32 lane) { return regs[static_cast<size_t>(r) * kWarpSize + lane]; }
  u32 reg_at(u16 r, u32 lane) const { return regs[static_cast<size_t>(r) * kWarpSize + lane]; }
  u8& pred_at(i16 p, u32 lane) { return preds[static_cast<size_t>(p) * kWarpSize + lane]; }
  u8 pred_at(i16 p, u32 lane) const { return preds[static_cast<size_t>(p) * kWarpSize + lane]; }

  /// Contiguous 32-lane SoA row of GPR `r` / predicate `p`.
  u32* reg_row(u16 r) { return regs.data() + static_cast<size_t>(r) * kWarpSize; }
  const u32* reg_row(u16 r) const { return regs.data() + static_cast<size_t>(r) * kWarpSize; }
  u8* pred_row(i16 p) { return preds.data() + static_cast<size_t>(p) * kWarpSize; }
  const u8* pred_row(i16 p) const { return preds.data() + static_cast<size_t>(p) * kWarpSize; }

  /// Drop finished/empty stack entries. Returns false when the warp has
  /// fully completed (stack empty or all lanes exited).
  bool refresh_stack() {
    while (!stack.empty()) {
      const StackEntry& top = stack.back();
      const u32 eff = top.mask & ~exited;
      if (eff == 0 || top.pc == top.rpc) {
        stack.pop_back();
        continue;
      }
      return true;
    }
    return false;
  }

  /// Lanes that will execute the next instruction.
  u32 effective_mask() const { return stack.back().mask & ~exited; }
  isa::Pc pc() const { return stack.back().pc; }

  /// Scoreboard: true if register/pred `r` has an outstanding write that is
  /// not ready at `now` (removes stale entries as a side effect).
  bool hazard(u16 r, bool is_pred, Cycle now) {
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].ready <= now) {
        pending[i] = pending.back();
        pending.pop_back();
        continue;
      }
      if (pending[i].reg == r && pending[i].is_pred == is_pred) return true;
      ++i;
    }
    return false;
  }

  /// Cycle at which hazard(r, is_pred, ...) turns false: the latest `ready`
  /// among outstanding writes to that register, or `t` if none is in flight
  /// after `t`. Pure (no reaping) — used by the event-driven engine to turn
  /// scoreboard releases into wake events.
  Cycle release_cycle(u16 r, bool is_pred, Cycle t) const {
    Cycle rel = t;
    for (const Pending& p : pending)
      if (p.reg == r && p.is_pred == is_pred && p.ready > rel) rel = p.ready;
    return rel;
  }
};

template <FieldsOf<Warp::Pending> S, class V>
void visit_fields(S& p, V&& v) {
  v("reg", p.reg);
  v("is_pred", p.is_pred);
  v("ready", p.ready);
}

/// The snapshot fields of a warp slot: an inactive slot is its `active`
/// byte alone. `ctrace` is rebuilt from the owning block.
template <FieldsOf<Warp> S, class V>
void visit_fields(S& w, V&& v) {
  v("active", w.active);
  if (!w.active) return;
  v("age", w.age);
  v("block_slot", w.block_slot);
  v("warp_in_block", w.warp_in_block);
  v("valid_mask", w.valid_mask);
  v("exited", w.exited);
  v("stack", w.stack);
  v("regs", w.regs);
  v("preds", w.preds);
  v("at_barrier", w.at_barrier);
  v("pending", w.pending);
  v("instructions", w.instructions);
}

}  // namespace higpu::sim
