#include "exp/scenario.h"

#include <stdexcept>

namespace higpu::exp {

// ---- FaultPlan -------------------------------------------------------------

FaultPlan FaultPlan::droop(Cycle start, Cycle duration, u32 bit) {
  FaultPlan p;
  p.kind = Kind::kDroop;
  p.start = start;
  p.duration = duration;
  p.bit = bit;
  return p;
}

FaultPlan FaultPlan::transient_sm(u32 sm, Cycle start, Cycle duration,
                                  u32 bit) {
  FaultPlan p;
  p.kind = Kind::kTransientSm;
  p.sm = sm;
  p.start = start;
  p.duration = duration;
  p.bit = bit;
  return p;
}

FaultPlan FaultPlan::permanent_sm(u32 sm, Cycle start, u32 bit) {
  FaultPlan p;
  p.kind = Kind::kPermanentSm;
  p.sm = sm;
  p.start = start;
  p.bit = bit;
  return p;
}

FaultPlan FaultPlan::scheduler(Cycle start, u32 sm_offset) {
  FaultPlan p;
  p.kind = Kind::kScheduler;
  p.start = start;
  p.sm_offset = sm_offset;
  return p;
}

void FaultPlan::arm(fault::FaultInjector& fi) const {
  switch (kind) {
    case Kind::kNone: fi.disarm(); break;
    case Kind::kDroop: fi.arm_droop(start, duration, bit); break;
    case Kind::kTransientSm:
      fi.arm_transient_sm(sm, start, duration, bit);
      break;
    case Kind::kPermanentSm: fi.arm_permanent_sm(sm, start, bit); break;
    case Kind::kScheduler: fi.arm_scheduler_fault(start, sm_offset); break;
  }
}

std::string FaultPlan::label() const {
  switch (kind) {
    case Kind::kNone: return "nofault";
    case Kind::kDroop:
      return "droop@" + std::to_string(start) + "w" + std::to_string(duration) +
             "b" + std::to_string(bit);
    case Kind::kTransientSm:
      return "tsm" + std::to_string(sm) + "@" + std::to_string(start) + "w" +
             std::to_string(duration) + "b" + std::to_string(bit);
    case Kind::kPermanentSm:
      return "psm" + std::to_string(sm) + "@" + std::to_string(start) + "b" +
             std::to_string(bit);
    case Kind::kScheduler:
      return "sched@" + std::to_string(start) + "+" + std::to_string(sm_offset);
  }
  return "?";
}

void FaultPlan::validate(const sim::GpuParams& gpu) const {
  if (kind == Kind::kNone) return;
  const bool corrupts_alu = kind != Kind::kScheduler;
  if (corrupts_alu && bit >= 32)
    throw std::invalid_argument("FaultPlan: corrupted bit " +
                                std::to_string(bit) + " out of range [0, 32)");
  if ((kind == Kind::kDroop || kind == Kind::kTransientSm) &&
      (duration == 0 || duration > kNeverCycle - start))
    throw std::invalid_argument("FaultPlan: transient fault window " + label() +
                                " is empty or ends past the last cycle");
  if ((kind == Kind::kTransientSm || kind == Kind::kPermanentSm) &&
      sm >= gpu.num_sms)
    throw std::invalid_argument("FaultPlan: target SM " + std::to_string(sm) +
                                " outside the " + std::to_string(gpu.num_sms) +
                                "-SM GPU");
  if (kind == Kind::kScheduler && sm_offset % gpu.num_sms == 0)
    throw std::invalid_argument(
        "FaultPlan: scheduler fault offset must not be a multiple of num_sms "
        "(the mapping would be unchanged)");
}

// ---- ScenarioSpec ----------------------------------------------------------

core::ExecSession::Config ScenarioSpec::session_config() const {
  core::ExecSession::Config cfg;
  cfg.policy = policy;
  cfg.redundancy = redundancy;
  return cfg;
}

void ScenarioSpec::validate() const {
  if (!workloads::is_known(workload))
    throw std::invalid_argument(workloads::unknown_workload_message(workload));
  if (gpu.num_sms == 0 || gpu.num_sms > 64)
    throw std::invalid_argument("ScenarioSpec: num_sms " +
                                std::to_string(gpu.num_sms) +
                                " outside [1, 64] (SM masks are 64-bit)");
  if (gpu.warp_size == 0)
    throw std::invalid_argument("ScenarioSpec: warp_size must be > 0");
  if (gpu.num_warp_schedulers == 0)
    throw std::invalid_argument(
        "ScenarioSpec: num_warp_schedulers must be > 0");
  try {
    memsys::validate(gpu.mem);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("ScenarioSpec: ") + e.what());
  }
  try {
    redundancy.validate(gpu, policy);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("ScenarioSpec: ") + e.what());
  }
  fault.validate(gpu);
}

std::string ScenarioSpec::label() const {
  std::string l = workload;
  l += ':';
  l += workloads::scale_name(scale);
  l += ":seed" + std::to_string(seed);
  l += ':';
  l += sched::policy_name(policy);
  l += ':';
  l += redundancy.label();
  l += ':';
  l += fault.label();
  const std::string mem = memsys::mem_label(gpu.mem);
  if (!mem.empty()) {
    l += ':';
    l += mem;
  }
  if (ckpt.active()) {
    l += ':';
    l += ckpt.label();
  }
  return l;
}

bool ScenarioSpec::same_but_fault_and_recovery(
    const ScenarioSpec& other) const {
  ScenarioSpec o = other;
  o.fault = fault;
  o.redundancy.recovery = redundancy.recovery;
  return *this == o;
}

// ---- ScenarioSet -----------------------------------------------------------

ScenarioSet ScenarioSet::of(ScenarioSpec base) {
  ScenarioSet set;
  set.add(std::move(base));
  return set;
}

ScenarioSet ScenarioSet::for_workloads(const std::vector<std::string>& names,
                                       const ScenarioSpec& proto) {
  ScenarioSet set;
  for (const std::string& name : names) {
    ScenarioSpec s = proto;
    s.workload = name;
    set.add(std::move(s));
  }
  return set;
}

ScenarioSet& ScenarioSet::add(ScenarioSpec spec) {
  specs_.push_back(std::move(spec));
  return *this;
}

ScenarioSet& ScenarioSet::append(const ScenarioSet& other) {
  specs_.insert(specs_.end(), other.specs_.begin(), other.specs_.end());
  return *this;
}

void ScenarioSet::require_base(const char* builder) const {
  if (specs_.empty())
    throw std::invalid_argument(
        std::string("ScenarioSet::") + builder +
        ": base scenario set is empty (nothing to sweep; build the set "
        "before applying sweep axes)");
}

ScenarioSet ScenarioSet::product(const std::vector<Mutator>& axis) const {
  // An empty side would silently annihilate the cross-product, and an empty
  // campaign vacuously "passes" — make the degenerate sweep loud instead.
  require_base("product");
  if (axis.empty())
    throw std::invalid_argument(
        "ScenarioSet::product: sweep axis must not be empty");
  ScenarioSet out;
  out.specs_.reserve(specs_.size() * axis.size());
  for (const ScenarioSpec& spec : specs_) {
    for (const Mutator& mutate : axis) {
      ScenarioSpec s = spec;
      mutate(s);
      out.specs_.push_back(std::move(s));
    }
  }
  return out;
}

ScenarioSet ScenarioSet::sweep_policies(
    const std::vector<sched::Policy>& policies) const {
  require_base("sweep_policies");
  std::vector<Mutator> axis;
  for (sched::Policy p : policies)
    axis.push_back([p](ScenarioSpec& s) { s.policy = p; });
  return product(axis);
}

ScenarioSet ScenarioSet::sweep_faults(
    const std::vector<FaultPlan>& plans) const {
  require_base("sweep_faults");
  std::vector<Mutator> axis;
  for (const FaultPlan& plan : plans)
    axis.push_back([plan](ScenarioSpec& s) { s.fault = plan; });
  return product(axis);
}

ScenarioSet ScenarioSet::sweep_seeds(const std::vector<u64>& seeds) const {
  require_base("sweep_seeds");
  std::vector<Mutator> axis;
  for (u64 seed : seeds)
    axis.push_back([seed](ScenarioSpec& s) { s.seed = seed; });
  return product(axis);
}

ScenarioSet ScenarioSet::sweep_workloads(
    const std::vector<std::string>& names) const {
  require_base("sweep_workloads");
  std::vector<Mutator> axis;
  for (const std::string& name : names)
    axis.push_back([name](ScenarioSpec& s) { s.workload = name; });
  return product(axis);
}

ScenarioSet ScenarioSet::sweep_redundancy(
    const std::vector<core::RedundancySpec>& specs) const {
  require_base("sweep_redundancy");
  std::vector<Mutator> axis;
  for (const core::RedundancySpec& r : specs)
    axis.push_back([r](ScenarioSpec& s) { s.redundancy = r; });
  return product(axis);
}

ScenarioSet ScenarioSet::sweep_redundancy() const {
  return sweep_redundancy({core::RedundancySpec::baseline(),
                           core::RedundancySpec::dcls(),
                           core::RedundancySpec::dcls_retry(),
                           core::RedundancySpec::tmr(), [] {
                             core::RedundancySpec r = core::RedundancySpec::tmr();
                             r.recovery = core::RedundancySpec::Recovery::kRetry;
                             return r;
                           }()});
}

ScenarioSet ScenarioSet::sweep_mem(
    const std::vector<memsys::MemParams>& mems) const {
  require_base("sweep_mem");
  std::vector<Mutator> axis;
  for (const memsys::MemParams& mem : mems)
    axis.push_back([mem](ScenarioSpec& s) { s.gpu.mem = mem; });
  return product(axis);
}

ScenarioSet ScenarioSet::sweep_write_policies() const {
  require_base("sweep_write_policies");
  std::vector<Mutator> axis;
  for (memsys::WritePolicy wp :
       {memsys::WritePolicy::kWriteBack, memsys::WritePolicy::kWriteThrough}) {
    for (memsys::WriteAlloc wa :
         {memsys::WriteAlloc::kAllocate, memsys::WriteAlloc::kNoAllocate}) {
      axis.push_back([wp, wa](ScenarioSpec& s) {
        s.gpu.mem.l1_write_policy = wp;
        s.gpu.mem.l1_write_alloc = wa;
      });
    }
  }
  return product(axis);
}

void ScenarioSet::validate_all() const {
  for (size_t i = 0; i < specs_.size(); ++i) {
    try {
      specs_[i].validate();
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("scenario #" + std::to_string(i) + " (" +
                                  specs_[i].label() + "): " + e.what());
    }
  }
}

}  // namespace higpu::exp
