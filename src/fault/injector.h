// Deterministic fault injection (paper §IV.C fault model).
//
// Supported faults (corrupt_lanes() flips results only inside their window):
//  * Chip-wide transient droop — every ALU/SFU result produced in a cycle
//    window gets the same bit flipped on ALL SMs. This is the Common-Cause
//    Fault ISO 26262 worries about: if the two redundant copies execute the
//    same computation inside the window, both results are corrupted
//    *identically* and the DCLS comparison cannot detect it.
//  * Single-SM transient — same, restricted to one SM.
//  * Permanent SM defect — every result on one SM is corrupted from a given
//    cycle on (models a broken functional unit).
//  * Scheduler mapping fault — the kernel scheduler's block->SM decision is
//    rotated by a fixed offset from a given cycle on (models a fault in the
//    paper's modified global kernel scheduler).
#pragma once

#include "common/fields.h"
#include "common/types.h"
#include "sim/fault_hook.h"

namespace higpu::fault {

class FaultInjector final : public sim::IFaultHook {
 public:
  void arm_droop(Cycle start, Cycle duration, u32 bit);
  void arm_transient_sm(u32 sm, Cycle start, Cycle duration, u32 bit);
  void arm_permanent_sm(u32 sm, Cycle start, u32 bit);
  void arm_scheduler_fault(Cycle start, u32 sm_offset);
  void disarm();

  // sim::IFaultHook
  /// `1 << bit` inside the window on `sm` (any SM for a droop), else 0.
  u32 corrupt_lanes(u32 sm, Cycle cycle, u32 lanes) override;
  u32 corrupt_block_mapping(u32 intended_sm, u32 num_sms, Cycle cycle) override;
  void on_block_diverted(u32 intended_sm, u32 actual_sm) override;
  Cycle next_trigger_cycle(Cycle now) const override;
  /// Checkpoint participation: the armed window and the corruption counters
  /// are snapshot state, so an exact restore mid fault window resumes the
  /// injection bit-identically.
  void save_state(ckpt::Writer& w) const override;
  void restore_state(ckpt::Reader& r) override;
  /// Rollback recovery re-traverses past cycles; a transient disturbance
  /// (droop / single-SM transient) is a one-time physical event that will
  /// not recur, so its cycle-anchored window is disarmed. Permanent defects
  /// and scheduler faults persist.
  void on_rollback() override;
  /// Inert when nothing is armed: never armed, disarmed, or a transient
  /// that on_rollback() disarmed.
  bool inert() const override { return mode_ == Mode::kNone; }

  /// Number of datapath results actually corrupted so far.
  u64 corruptions() const { return corruptions_; }
  /// Number of block placements actually diverted so far.
  u64 diverted_blocks() const { return diverted_; }

 private:
  enum class Mode { kNone, kDroop, kTransientSm, kPermanentSm, kScheduler };
  friend constexpr Mode enum_last(Mode) { return Mode::kScheduler; }
  template <FieldsOf<FaultInjector> S, class V>
  friend void visit_fields(S& f, V&& v) {
    v("mode", f.mode_);
    v("sm", f.sm_);
    v("start", f.start_);
    v("end", f.end_);
    v("bit", f.bit_);
    v("sm_offset", f.sm_offset_);
    v("corruptions", f.corruptions_);
    v("diverted", f.diverted_);
  }

  Mode mode_ = Mode::kNone;
  u32 sm_ = 0;
  Cycle start_ = 0;
  Cycle end_ = 0;  // exclusive; ~0 for permanent
  u32 bit_ = 0;
  u32 sm_offset_ = 0;
  u64 corruptions_ = 0;
  u64 diverted_ = 0;
};

/// Outcome of one fault-injection experiment on a redundant pair.
enum class Outcome {
  kMasked,    // outputs match and are correct (fault had no effect)
  kDetected,  // outputs differ -> DCLS comparison flags the error
  kSdc,       // outputs match but are WRONG: undetected CCF (the ISO 26262
              // single-point failure the policies must make impossible)
};
constexpr Outcome enum_last(Outcome) { return Outcome::kSdc; }

const char* outcome_name(Outcome o);

/// Classify from the two verdicts available to the safety mechanism.
Outcome classify(bool outputs_match, bool output_correct);

/// Tally over a campaign.
struct CampaignTally {
  u64 masked = 0;
  u64 detected = 0;
  u64 sdc = 0;

  void count(Outcome o);
  u64 total() const { return masked + detected + sdc; }
  /// Fraction of non-masked faults that were detected (diagnostic coverage
  /// of the redundancy safety mechanism).
  double diagnostic_coverage() const;
};

}  // namespace higpu::fault
