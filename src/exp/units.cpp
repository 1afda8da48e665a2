#include "exp/units.h"

#include <algorithm>
#include <exception>
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
      if (!grouped[j] && set[i].same_but_fault(set[j])) {
        members.push_back(j);
        grouped[j] = true;
      }
    }
    units.push_back(WorkUnit::of(set, std::move(members)));
  }
  return units;
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

}  // namespace

GroupBase run_group_base(const ScenarioSet& set,
                         const std::vector<size_t>& members) {
  SnapshotIo io;
  io.keep_round = true;
  size_t nofault = GroupBase::kSynthetic;
  for (size_t i : members) {
    if (set[i].fault.active())
      io.capture_targets.push_back(set[i].fault.start);
    else if (nofault == GroupBase::kSynthetic)
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
  // base's), otherwise synthesize one whose result is discarded.
  GroupBase base;
  if (nofault != GroupBase::kSynthetic) {
    base.result_index = nofault;
    base.result = run_scenario(set[nofault], static_cast<u32>(nofault),
                               nullptr, install, &io);
  } else {
    ScenarioSpec spec = set[members[0]];
    spec.fault = FaultPlan::none();
    base.result = run_scenario(spec, static_cast<u32>(members[0]), nullptr,
                               install, &io);
  }
  base.targets = std::move(io.capture_targets);  // canonical sorted order
  base.snapshots = std::move(io.captured);
  base.final_state = std::move(io.final_state);
  base.round = std::move(io.round);
  if (base.final_state != nullptr)
    base.quiet = watch.quiet(base.final_state->cycle);

  // A quiet member never forks, so a snapshot only quiet members asked for
  // is never restored: drop it before the forks run.
  std::vector<Cycle> forked;
  for (size_t i : members) {
    const bool quiet = std::any_of(
        base.quiet.begin(), base.quiet.end(),
        [i](const GroupBase::Quiet& q) { return q.index == i; });
    if (set[i].fault.active() && !quiet) forked.push_back(set[i].fault.start);
  }
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

}  // namespace

ScenarioResult run_fork(const ScenarioSet& set, size_t i,
                        const GroupBase& base, const ScenarioProbe& probe,
                        const ScenarioProbe& pre_run) {
  const ScenarioSpec& spec = set[i];
  SnapshotIo io;
  if (base.ok()) {
    // A quiet window never fires: the faulted run is the clean run but for
    // the boundaries it visits as trigger events, so it takes the clean
    // result, relabelled. Its final state differs from the clean one only
    // in the armed injector and the fast-forward count.
    const auto q = std::find_if(
        base.quiet.begin(), base.quiet.end(),
        [i](const GroupBase::Quiet& m) { return m.index == i; });
    if (q != base.quiet.end() && validates(spec)) {
      ScenarioResult r = base.result;
      r.index = static_cast<u32>(i);
      r.label = spec.label();
      r.fault_active = true;
      r.ff_cycles -= q->jumped;
      r.divergence = "fault";
      r.wall_sec = 0.0;
      r.sim_wall_sec = 0.0;
      return r;
    }
    io.resume = base.snapshot_for(spec.fault.start);
    io.divergence_ref = base.final_state;
    io.replay = base.round;
  }
  return run_scenario(spec, static_cast<u32>(i), probe, pre_run, &io);
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
  for (size_t i : members) {
    if (i == base.result_index) continue;
    emit(set[i].fault.active() ? run_fork(set, i, base, probe, pre_run)
                               : from_scratch(i));
  }
}

}  // namespace higpu::exp
