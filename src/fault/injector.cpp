#include "fault/injector.h"

#include <bit>

namespace higpu::fault {

void FaultInjector::arm_droop(Cycle start, Cycle duration, u32 bit) {
  mode_ = Mode::kDroop;
  start_ = start;
  end_ = start + duration;
  bit_ = bit & 31;
  corruptions_ = diverted_ = 0;
}

void FaultInjector::arm_transient_sm(u32 sm, Cycle start, Cycle duration, u32 bit) {
  mode_ = Mode::kTransientSm;
  sm_ = sm;
  start_ = start;
  end_ = start + duration;
  bit_ = bit & 31;
  corruptions_ = diverted_ = 0;
}

void FaultInjector::arm_permanent_sm(u32 sm, Cycle start, u32 bit) {
  mode_ = Mode::kPermanentSm;
  sm_ = sm;
  start_ = start;
  end_ = ~Cycle{0};
  bit_ = bit & 31;
  corruptions_ = diverted_ = 0;
}

void FaultInjector::arm_scheduler_fault(Cycle start, u32 sm_offset) {
  mode_ = Mode::kScheduler;
  start_ = start;
  end_ = ~Cycle{0};
  sm_offset_ = sm_offset;
  corruptions_ = diverted_ = 0;
}

void FaultInjector::disarm() { mode_ = Mode::kNone; }

u32 FaultInjector::corrupt_lanes(u32 sm, Cycle cycle, u32 lanes) {
  switch (mode_) {
    case Mode::kDroop:
      if (cycle >= start_ && cycle < end_) break;
      return 0;
    case Mode::kTransientSm:
    case Mode::kPermanentSm:
      if (sm == sm_ && cycle >= start_ && cycle < end_) break;
      return 0;
    default:
      return 0;
  }
  corruptions_ += static_cast<u64>(std::popcount(lanes));
  return 1u << bit_;
}

u32 FaultInjector::corrupt_block_mapping(u32 intended_sm, u32 num_sms,
                                         Cycle cycle) {
  if (mode_ != Mode::kScheduler || cycle < start_) return intended_sm;
  return (intended_sm + sm_offset_) % num_sms;
}

void FaultInjector::on_block_diverted(u32 intended_sm, u32 actual_sm) {
  if (actual_sm != intended_sm) ++diverted_;
}

Cycle FaultInjector::next_trigger_cycle(Cycle now) const {
  if (mode_ == Mode::kNone) return kNeverCycle;
  if (start_ > now) return start_;           // window opens
  if (end_ != kNeverCycle && end_ > now) return end_;  // window closes
  return kNeverCycle;
}

void FaultInjector::save_state(ckpt::Writer& w) const {
  ckpt::put_fields(w, *this);
}

void FaultInjector::restore_state(ckpt::Reader& r) {
  ckpt::get_fields(r, *this, ckpt::FieldPath{"fault"});
}

void FaultInjector::on_rollback() {
  if (mode_ == Mode::kDroop || mode_ == Mode::kTransientSm)
    mode_ = Mode::kNone;
}

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kMasked: return "masked";
    case Outcome::kDetected: return "detected";
    case Outcome::kSdc: return "SDC";
  }
  return "?";
}

Outcome classify(bool outputs_match, bool output_correct) {
  if (!outputs_match) return Outcome::kDetected;
  return output_correct ? Outcome::kMasked : Outcome::kSdc;
}

void CampaignTally::count(Outcome o) {
  switch (o) {
    case Outcome::kMasked: ++masked; break;
    case Outcome::kDetected: ++detected; break;
    case Outcome::kSdc: ++sdc; break;
  }
}

double CampaignTally::diagnostic_coverage() const {
  const u64 effective = detected + sdc;
  return effective == 0 ? 1.0
                        : static_cast<double>(detected) /
                              static_cast<double>(effective);
}

}  // namespace higpu::fault
