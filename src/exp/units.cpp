#include "exp/units.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

namespace higpu::exp {

WorkUnit WorkUnit::of(const ScenarioSet& set, std::vector<size_t> members) {
  WorkUnit u;
  u.members = std::move(members);
  for (size_t m : u.members)
    if (set[m].fault.active()) ++u.fault_members;
  return u;
}

std::vector<WorkUnit> plan_units(const ScenarioSet& set, bool group_faults) {
  std::vector<WorkUnit> units;
  std::vector<bool> grouped(set.size(), false);
  for (size_t i = 0; i < set.size(); ++i) {
    if (grouped[i]) continue;
    std::vector<size_t> members = {i};
    grouped[i] = true;
    for (size_t j = i + 1; group_faults && j < set.size(); ++j) {
      if (!grouped[j] && set[i].same_but_fault_and_recovery(set[j])) {
        members.push_back(j);
        grouped[j] = true;
      }
    }
    units.push_back(WorkUnit::of(set, std::move(members)));
  }
  return units;
}

bool GroupBase::answers(const ScenarioSpec& member) const {
  // A first attempt whose outputs were all safe engages no recovery, so
  // every strategy returns what this run returned.
  const bool settled = result.attempts == 1 && result.majority_ok;
  return ok() && (settled || member.redundancy.recovery == recovery);
}

ckpt::SnapshotPtr GroupBase::snapshot_for(Cycle c) const {
  // A failed base run leaves `snapshots` empty while `targets` still holds
  // the requested cycles; treat any shape mismatch as "no snapshot".
  if (snapshots.size() != targets.size()) return nullptr;
  const auto it = std::lower_bound(targets.begin(), targets.end(), c);
  if (it == targets.end() || *it != c) return nullptr;
  return snapshots[static_cast<size_t>(it - targets.begin())];
}

namespace {

/// The fault hook of a group's clean base run. It watches the run on behalf
/// of the fault members: whether a datapath result with live lanes lands in
/// a member's window on its SMs, and which window boundaries the event loop
/// jumps over. It corrupts nothing, diverts nothing, adds no wake event and
/// saves no state, so the run is the clean run, snapshot bytes included.
class QuietWatch final : public sim::IFaultHook {
 public:
  QuietWatch(const ScenarioSet& set, const std::vector<size_t>& members) {
    for (size_t i : members) {
      const FaultPlan& f = set[i].fault;
      if (!f.active()) continue;
      const bool transient = f.kind == FaultPlan::Kind::kDroop ||
                             f.kind == FaultPlan::Kind::kTransientSm;
      windows_.push_back(
          {i, f, transient ? f.start + f.duration : kNeverCycle});
    }
  }

  u32 corrupt_lanes(u32 sm, Cycle cycle, u32 lanes) override {
    if (lanes == 0) return 0;
    for (Window& w : windows_) {
      if (w.hit || cycle < w.plan.start || cycle >= w.end) continue;
      switch (w.plan.kind) {
        case FaultPlan::Kind::kDroop: w.hit = true; break;
        case FaultPlan::Kind::kTransientSm:
        case FaultPlan::Kind::kPermanentSm: w.hit = sm == w.plan.sm; break;
        default: break;  // a scheduler fault corrupts no result
      }
    }
    return 0;
  }

  u32 corrupt_block_mapping(u32 intended_sm, u32, Cycle) override {
    return intended_sm;
  }

  Cycle next_trigger_cycle(Cycle now) const override {
    if (asked_) count_jumped(last_ask_, now);
    asked_ = true;
    last_ask_ = now;
    return kNeverCycle;
  }

  /// Rollback re-traverses cycles, and the faulted run disarms a transient
  /// there: no window can be vouched for after one.
  void on_rollback() override { rolled_back_ = true; }

  /// The quiet members, once the run has ended with its clock at `end`.
  std::vector<GroupBase::Quiet> quiet(Cycle end) {
    std::vector<GroupBase::Quiet> out;
    if (rolled_back_) return out;
    if (asked_) count_jumped(last_ask_, end);  // the loop's last jump
    for (const Window& w : windows_) {
      // A scheduler fault changes dispatch, not results: only a window the
      // clean run never reaches is quiet.
      const bool quiet = w.plan.kind == FaultPlan::Kind::kScheduler
                             ? w.plan.start > end
                             : !w.hit;
      if (quiet) out.push_back({w.index, w.jumped});
    }
    return out;
  }

 private:
  struct Window {
    size_t index;
    FaultPlan plan;
    Cycle end;  // exclusive; kNeverCycle when the window never closes
    bool hit = false;
    Cycle jumped = 0;
  };

  /// The loop jumped from cycle `from` to `to`, fast-forwarding the cycles
  /// strictly between: a boundary there would have been a trigger event.
  void count_jumped(Cycle from, Cycle to) const {
    if (to <= from + 1) return;
    for (Window& w : windows_)
      w.jumped += static_cast<Cycle>(from < w.plan.start && w.plan.start < to) +
                  static_cast<Cycle>(from < w.end && w.end < to);
  }

  mutable std::vector<Window> windows_;
  mutable bool asked_ = false;
  mutable Cycle last_ask_ = 0;
  bool rolled_back_ = false;
};

using Recovery = core::RedundancySpec::Recovery;

bool rolls_back(const ScenarioSpec& spec) {
  return spec.redundancy.recovery == Recovery::kRollback;
}

/// Member `i`'s quiet entry, or null when its window is not quiet.
const GroupBase::Quiet* find_quiet(const GroupBase& base, size_t i) {
  const auto q =
      std::find_if(base.quiet.begin(), base.quiet.end(),
                   [i](const GroupBase::Quiet& m) { return m.index == i; });
  return q != base.quiet.end() ? &*q : nullptr;
}

}  // namespace

GroupBase run_group_base(const ScenarioSet& set,
                         const std::vector<size_t>& members) {
  SnapshotIo io;
  io.keep_round = true;
  size_t nofault = GroupBase::kSynthetic;
  for (size_t i : members) {
    if (set[i].fault.active())
      io.capture_targets.push_back(set[i].fault.start);
    else if (nofault == GroupBase::kSynthetic ||
             (!rolls_back(set[nofault]) && rolls_back(set[i])))
      nofault = i;
  }
  QuietWatch watch(set, members);
  const ScenarioProbe install = [&watch](runtime::Device& dev,
                                         workloads::Workload&,
                                         core::ExecSession&) {
    dev.gpu().set_fault_hook(&watch);
  };

  // The clean base: reuse the group's own fault-free member if it has one
  // (captures and the watch are invisible, so its result doubles as the
  // base's), otherwise synthesize one whose result is discarded. A member
  // that rolls back is preferred: only its run captures the pre-kernel
  // anchors, and so keeps the round rolling-back forks replay.
  GroupBase base;
  if (nofault != GroupBase::kSynthetic) {
    base.result_index = nofault;
    base.recovery = set[nofault].redundancy.recovery;
    base.result = run_scenario(set[nofault], static_cast<u32>(nofault),
                               nullptr, install, &io);
  } else {
    const auto first_rollback =
        std::find_if(members.begin(), members.end(),
                     [&set](size_t i) { return rolls_back(set[i]); });
    const size_t from =
        first_rollback != members.end() ? *first_rollback : members[0];
    ScenarioSpec spec = set[from];
    spec.fault = FaultPlan::none();
    base.recovery = spec.redundancy.recovery;
    base.result =
        run_scenario(spec, static_cast<u32>(from), nullptr, install, &io);
  }
  base.targets = std::move(io.capture_targets);  // canonical sorted order
  base.snapshots = std::move(io.captured);
  base.final_state = std::move(io.final_state);
  base.round = std::move(io.round);
  if (base.final_state != nullptr)
    base.quiet = watch.quiet(base.final_state->cycle);

  // A quiet member the base answers never forks, so a snapshot only such
  // members asked for is never restored: drop it before the forks run.
  std::vector<Cycle> forked;
  for (size_t i : members)
    if (set[i].fault.active() &&
        !(find_quiet(base, i) != nullptr && base.answers(set[i])))
      forked.push_back(set[i].fault.start);
  for (size_t k = 0; k < base.snapshots.size(); ++k)
    if (std::find(forked.begin(), forked.end(), base.targets[k]) ==
        forked.end())
      base.snapshots[k].reset();
  return base;
}

namespace {

bool validates(const ScenarioSpec& spec) {
  try {
    spec.validate();
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// The base's result, relabelled, for member `i` when it answers without a
/// simulation: a fault-free member, or a valid quiet fault member — its
/// faulted run is the clean run but for the boundaries it visits as
/// trigger events, and its final state differs from the clean one only in
/// the armed injector and the fast-forward count. Empty when `i` must run.
std::optional<ScenarioResult> answer_from_base(const ScenarioSet& set,
                                               size_t i,
                                               const GroupBase& base) {
  const ScenarioSpec& spec = set[i];
  if (!base.answers(spec)) return std::nullopt;
  const GroupBase::Quiet* q = find_quiet(base, i);
  if (spec.fault.active() && (q == nullptr || !validates(spec)))
    return std::nullopt;
  ScenarioResult r = base.result;
  r.index = static_cast<u32>(i);
  r.label = spec.label();
  r.wall_sec = 0.0;
  r.sim_wall_sec = 0.0;
  if (spec.fault.active()) {
    r.fault_active = true;
    r.ff_cycles -= q->jumped;
    r.divergence = "fault";
  }
  return r;
}

constexpr size_t kNoSibling = static_cast<size_t>(-1);

/// run_fork, answering the Recovery::kNone twin `sibling` (kNoSibling: none)
/// from the fork's first attempt when the fork is simulated. `*sibling_out`
/// is left empty when it is not.
ScenarioResult fork(const ScenarioSet& set, size_t i, const GroupBase& base,
                    const ScenarioProbe& probe, const ScenarioProbe& pre_run,
                    size_t sibling,
                    std::optional<ScenarioResult>* sibling_out) {
  if (std::optional<ScenarioResult> r = answer_from_base(set, i, base))
    return std::move(*r);
  SnapshotIo io;
  if (base.ok()) {
    io.resume = base.snapshot_for(set[i].fault.start);
    io.divergence_ref = base.final_state;
    io.replay = base.round;
  }
  if (sibling != kNoSibling) {
    io.sibling = &set[sibling];
    io.sibling_index = static_cast<u32>(sibling);
  }
  ScenarioResult r =
      run_scenario(set[i], static_cast<u32>(i), probe, pre_run, &io);
  if (sibling_out != nullptr) *sibling_out = std::move(io.sibling_result);
  return r;
}

}  // namespace

ScenarioResult run_fork(const ScenarioSet& set, size_t i,
                        const GroupBase& base, const ScenarioProbe& probe,
                        const ScenarioProbe& pre_run) {
  return fork(set, i, base, probe, pre_run, kNoSibling, nullptr);
}

void run_unit(const ScenarioSet& set, const std::vector<size_t>& members,
              const ResultSink& emit, const ScenarioProbe& probe,
              const ScenarioProbe& pre_run) {
  const auto from_scratch = [&](size_t i) {
    return run_scenario(set[i], static_cast<u32>(i), probe, pre_run);
  };
  if (!WorkUnit::of(set, members).worth_base_run()) {
    for (size_t i : members) emit(from_scratch(i));
    return;
  }
  const GroupBase base = run_group_base(set, members);
  if (base.result_index != GroupBase::kSynthetic) emit(base.result);

  // Each Recovery::kNone fault member rides along with the first recovering
  // member of the same plan: that member's first attempt is its run.
  std::vector<size_t> sibling_of(set.size(), kNoSibling);
  std::vector<bool> carried(set.size(), false);
  for (size_t j : members) {
    if (!set[j].fault.active() ||
        set[j].redundancy.recovery != Recovery::kNone)
      continue;
    for (size_t i : members)
      if (set[i].redundancy.recovery != Recovery::kNone &&
          sibling_of[i] == kNoSibling && set[i].fault == set[j].fault &&
          set[i].same_but_fault_and_recovery(set[j])) {
        sibling_of[i] = j;
        carried[j] = true;
        break;
      }
  }

  for (size_t i : members) {
    if (i == base.result_index || carried[i]) continue;
    if (!set[i].fault.active()) {
      std::optional<ScenarioResult> r = answer_from_base(set, i, base);
      emit(r ? std::move(*r) : from_scratch(i));
      continue;
    }
    std::optional<ScenarioResult> sibling;
    emit(fork(set, i, base, probe, pre_run, sibling_of[i], &sibling));
    if (sibling_of[i] == kNoSibling) continue;
    // A carrier answered from the base leaves its twin to run on its own.
    emit(sibling ? std::move(*sibling)
                 : run_fork(set, sibling_of[i], base, probe, pre_run));
  }
}

}  // namespace higpu::exp
