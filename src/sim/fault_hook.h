// Fault-injection hook interface.
//
// The simulator calls into this interface at the two places the paper's
// §IV.C argument cares about: datapath result production (transient droops,
// permanent SM defects) and kernel-scheduler block placement (scheduler
// faults). Implementations live in src/fault; a null hook costs one branch,
// an installed one a virtual call per ALU/SFU instruction.
#pragma once

#include "ckpt/serial.h"
#include "common/types.h"

namespace higpu::sim {

class IFaultHook {
 public:
  virtual ~IFaultHook() = default;

  /// An ALU/SFU instruction on SM `sm` wrote a result at `cycle` in each lane
  /// of `lanes`. Return the bits to XOR into each of those results, 0 outside
  /// a fault window; a non-zero flip counts popcount(lanes) corruptions.
  /// Called once per instruction after its lanes ran: lanes are independent,
  /// so this equals corrupting each result as it is produced.
  virtual u32 corrupt_lanes(u32 sm, Cycle cycle, u32 lanes) = 0;

  /// Possibly corrupt the kernel scheduler's block->SM mapping decision.
  /// Return the SM the block is actually sent to. Must be pure: the engines
  /// may query at different cadences (the dense loop re-attempts a blocked
  /// dispatch every cycle, the event engine only at event cycles), so any
  /// accounting belongs in on_block_diverted(), which fires once per
  /// actually placed block.
  virtual u32 corrupt_block_mapping(u32 intended_sm, u32 num_sms, Cycle cycle) = 0;

  /// A block was actually placed on `actual_sm` instead of `intended_sm`
  /// as a result of corrupt_block_mapping(). Called once per placed block.
  virtual void on_block_diverted(u32 intended_sm, u32 actual_sm) {
    (void)intended_sm;
    (void)actual_sm;
  }

  /// Earliest cycle strictly after `now` at which this hook's behaviour can
  /// change (a fault window opening or closing), or kNeverCycle if none.
  /// The event-driven engine treats these cycles as wake events so that
  /// cycle-targeted triggers land exactly as under the dense tick loop and
  /// are never skipped by quiescent-cycle fast-forward. It asks once per
  /// loop iteration, `now` being the cycle it simulated last, so the cycles
  /// strictly between two successive asks are the ones it fast-forwarded;
  /// a trigger inside such a jump costs one fast-forwarded cycle. The dense
  /// engine never asks.
  virtual Cycle next_trigger_cycle(Cycle now) const {
    (void)now;
    return kNeverCycle;
  }

  /// Checkpoint participation: hooks with behavioural state (armed windows,
  /// corruption counters, RNG streams) serialize it here so an exact restore
  /// resumes fault injection bit-identically (e.g. a snapshot taken mid
  /// fault window). Stateless hooks keep the no-op defaults; a snapshot
  /// then records no hook, as if none were installed.
  virtual void save_state(ckpt::Writer& w) const { (void)w; }
  virtual void restore_state(ckpt::Reader& r) { (void)r; }

  /// A rollback recovery restored an earlier checkpoint: simulated cycles
  /// are about to be re-traversed, but the physical timeline moved on. A
  /// transient disturbance (droop, SM transient) is a one-time event that
  /// already happened, so hooks should disarm cycle-anchored transient
  /// windows here; permanent defects persist and keep corrupting.
  virtual void on_rollback() {}

  /// True when the hook can no longer change anything: it corrupts no
  /// result, diverts no block and adds no trigger cycle, so a run with it
  /// installed is a clean run. A device may then replay a clean run's sync
  /// round instead of simulating it (runtime::Device::offer_round). The
  /// default claims nothing.
  virtual bool inert() const { return false; }
};

}  // namespace higpu::sim
