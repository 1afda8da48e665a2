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

GroupBase run_group_base(const ScenarioSet& set,
                         const std::vector<size_t>& members) {
  SnapshotIo io;
  size_t nofault = GroupBase::kSynthetic;
  for (size_t i : members) {
    if (set[i].fault.active())
      io.capture_targets.push_back(set[i].fault.start);
    else if (nofault == GroupBase::kSynthetic)
      nofault = i;
  }

  // The clean base: reuse the group's own fault-free member if it has one
  // (captures are free and invisible, so its result doubles as the base's),
  // otherwise synthesize one whose result is discarded.
  GroupBase base;
  if (nofault != GroupBase::kSynthetic) {
    base.result_index = nofault;
    base.result =
        run_scenario(set[nofault], static_cast<u32>(nofault), nullptr,
                     nullptr, &io);
  } else {
    ScenarioSpec spec = set[members[0]];
    spec.fault = FaultPlan::none();
    base.result = run_scenario(spec, static_cast<u32>(members[0]), nullptr,
                               nullptr, &io);
  }
  base.targets = std::move(io.capture_targets);  // canonical sorted order
  base.snapshots = std::move(io.captured);
  base.final_state = std::move(io.final_state);
  if (base.final_state != nullptr) base.end_cycle = base.final_state->cycle;
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
    // A window that opens after the clean run drained never fires: the
    // faulted run is the clean run, so it takes the clean result, relabelled.
    // Its final state differs from the clean one only in the armed injector.
    if (spec.fault.start > base.end_cycle && validates(spec)) {
      ScenarioResult r = base.result;
      r.index = static_cast<u32>(i);
      r.label = spec.label();
      r.fault_active = true;
      r.divergence = "fault";
      r.wall_sec = 0.0;
      r.sim_wall_sec = 0.0;
      return r;
    }
    io.resume = base.snapshot_for(spec.fault.start);
    io.divergence_ref = base.final_state;
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
