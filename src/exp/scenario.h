// Declarative experiment specifications (the campaign front door).
//
// Everything the paper reports (Figs. 4–5, §IV.C/§IV.D) is a *campaign*:
// the same workload swept across scheduling policies, redundancy modes and
// fault scenarios. A ScenarioSpec is one such experiment as a plain value —
// workload + scale + seed, GPU and platform parameters, policy/redundancy
// mode, and an optional fault plan — with validation and a stable label. A
// ScenarioSet expands sweeps and cross-products of specs into the scenario
// list a CampaignRunner executes (see exp/campaign.h).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ckpt/snapshot.h"
#include "core/exec.h"
#include "fault/injector.h"
#include "runtime/platform.h"
#include "sched/policies.h"
#include "sim/params.h"
#include "workloads/workload.h"

namespace higpu::exp {

/// Declarative fault-injection config: which injector to arm and its
/// window, as a value (the FaultInjector itself is per-run mutable state
/// constructed by the runner).
struct FaultPlan {
  enum class Kind {
    kNone,         // fault-free run
    kDroop,        // chip-wide transient: [start, start+duration), bit
    kTransientSm,  // same, restricted to `sm`
    kPermanentSm,  // every result on `sm` corrupted from `start` on
    kScheduler,    // block->SM mapping rotated by `sm_offset` from `start`
  };
  friend constexpr Kind enum_last(Kind) { return Kind::kScheduler; }

  Kind kind = Kind::kNone;
  u32 sm = 0;
  Cycle start = 0;
  Cycle duration = 0;
  u32 bit = 0;
  u32 sm_offset = 0;

  static FaultPlan none() { return {}; }
  static FaultPlan droop(Cycle start, Cycle duration, u32 bit);
  static FaultPlan transient_sm(u32 sm, Cycle start, Cycle duration, u32 bit);
  static FaultPlan permanent_sm(u32 sm, Cycle start, u32 bit);
  static FaultPlan scheduler(Cycle start, u32 sm_offset);

  bool active() const { return kind != Kind::kNone; }
  /// Configure `fi` to inject this plan.
  void arm(fault::FaultInjector& fi) const;
  /// Stable compact label, e.g. "droop@2000w50b2" ("nofault" when inactive).
  std::string label() const;
  /// Throws std::invalid_argument on nonsensical parameters (empty or
  /// overflowing transient windows, bit >= 32, target SM outside the GPU).
  void validate(const sim::GpuParams& gpu) const;

  bool operator==(const FaultPlan& other) const = default;
};

template <FieldsOf<FaultPlan> S, class V>
void visit_fields(S& f, V&& v) {
  v("kind", f.kind);
  v("sm", f.sm);
  v("start", f.start);
  v("duration", f.duration);
  v("bit", f.bit);
  v("sm_offset", f.sm_offset);
}

/// One experiment as a value. Default-constructed fields reproduce the
/// paper's standard setup (6-SM GPU, SRRS redundant pair, no faults).
struct ScenarioSpec {
  std::string workload;
  workloads::Scale scale = workloads::Scale::kTest;
  u64 seed = 2019;

  sim::GpuParams gpu;
  runtime::PlatformParams platform;

  sched::Policy policy = sched::Policy::kSrrs;
  /// The full redundancy configuration: copy count (1 = baseline, 2 = DCLS,
  /// >= 3 = NMR), comparison semantics, per-copy SRRS diversity starts, and
  /// recovery strategy. Defaults to the paper's DCLS pair.
  core::RedundancySpec redundancy;

  FaultPlan fault;

  /// Automatic device checkpointing (see ckpt::CheckpointPolicy). Captures
  /// are free on the modelled timeline and never perturb simulation, so a
  /// scenario's results are identical with or without them; the policy
  /// still appears in the label (":ckpt5000" / ":prekernel") because it
  /// changes what recovery/diagnosis machinery has to work with.
  /// Recovery::kRollback scenarios get kPreKernel automatically.
  ckpt::CheckpointPolicy ckpt;

  /// All fields except the fault plan and the recovery strategy
  /// (redundancy.recovery) match — `other` is the same experiment under a
  /// different fault, or one that reacts differently to a detection. The
  /// grouping predicate behind CampaignRunner's snapshot fast-forward: every
  /// recovery strategy runs the workload body once before any recovery
  /// starts, so all such specs share one clean run.
  bool same_but_fault_and_recovery(const ScenarioSpec& other) const;

  /// Session config corresponding to this spec.
  core::ExecSession::Config session_config() const;

  /// Throws std::invalid_argument naming the offending field (and, for
  /// unknown workloads, listing the valid names).
  void validate() const;

  /// Stable human/machine-friendly identity, e.g.
  /// "hotspot:test:seed2019:srrs:red:droop@2000w50b2" or
  /// "cfd:bench:seed2019:srrs:tmr-vote:nofault" (redundancy fragment per
  /// core::RedundancySpec::label()). A non-default memory
  /// configuration appends its memsys::mem_label() (e.g. ":wt-nwa-mshr4"),
  /// so --mem-* sweeps yield distinct labels. Two specs that differ only in
  /// the remaining GpuParams/PlatformParams fields share a label; campaigns
  /// that sweep those axes should also sweep `seed` or distinguish rows by
  /// index.
  std::string label() const;

  /// Field-for-field equality (every member already defines ==); what the
  /// wire-serialization round-trip tests assert.
  bool operator==(const ScenarioSpec& other) const = default;
};

template <FieldsOf<ScenarioSpec> S, class V>
void visit_fields(S& s, V&& v) {
  v("workload", s.workload);
  v("scale", s.scale);
  v("seed", s.seed);
  v("gpu", s.gpu);
  v("platform", s.platform);
  v("policy", s.policy);
  v("redundancy", s.redundancy);
  v("fault", s.fault);
  v("ckpt", s.ckpt);
}

/// An ordered list of scenarios plus the sweep builders that grow it.
/// Builders return a new set crossing every current scenario with every
/// requested variant, so chained calls expand the full cross-product:
///
///   ScenarioSet::of(base)
///       .sweep_policies({Policy::kDefault, Policy::kHalf, Policy::kSrrs})
///       .sweep_faults({FaultPlan::none(), FaultPlan::droop(2000, 50, 2)})
///
/// yields 3 x 2 = 6 scenarios in deterministic (row-major) order.
/// Degenerate sweeps are loud: both an empty axis and an empty base set
/// throw std::invalid_argument naming the offending side (an empty
/// cross-product would otherwise silently produce an empty, vacuously
/// passing campaign).
class ScenarioSet {
 public:
  /// Mutation applied to a copy of a spec — the generic sweep axis.
  using Mutator = std::function<void(ScenarioSpec&)>;

  ScenarioSet() = default;
  static ScenarioSet of(ScenarioSpec base);
  /// One scenario per name, each a copy of `proto` with the workload set.
  static ScenarioSet for_workloads(const std::vector<std::string>& names,
                                   const ScenarioSpec& proto);

  ScenarioSet& add(ScenarioSpec spec);
  /// Append another set's scenarios (union, preserving order).
  ScenarioSet& append(const ScenarioSet& other);

  /// Generic cross-product: every current scenario x every mutator. An
  /// empty axis throws std::invalid_argument (it would silently produce an
  /// empty, vacuously-passing campaign); so do the sweep_* shorthands.
  ScenarioSet product(const std::vector<Mutator>& axis) const;

  ScenarioSet sweep_policies(const std::vector<sched::Policy>& policies) const;
  ScenarioSet sweep_faults(const std::vector<FaultPlan>& plans) const;
  ScenarioSet sweep_seeds(const std::vector<u64>& seeds) const;
  ScenarioSet sweep_workloads(const std::vector<std::string>& names) const;
  /// Redundancy axis: every current scenario x every RedundancySpec.
  ScenarioSet sweep_redundancy(
      const std::vector<core::RedundancySpec>& specs) const;
  /// The canonical N ∈ {1, 2, 3} x compare x recovery expansion: baseline,
  /// DCLS (bitwise), DCLS + retry, TMR (majority vote), TMR + retry — the
  /// meaningful combinations (vote needs >= 3 copies; N = 1 compares
  /// nothing), so one sweep answers "what does TMR cost vs DCLS+retry".
  ScenarioSet sweep_redundancy() const;
  /// Memory-configuration axis: every current scenario x every MemParams
  /// (the rest of GpuParams is preserved). Labels stay distinct when the
  /// swept fields are ones memsys::mem_label() encodes (write policy,
  /// MSHR capacity, DRAM geometry/latencies); sweeps over other fields
  /// should distinguish rows by index, as with GpuParams sweeps.
  ScenarioSet sweep_mem(const std::vector<memsys::MemParams>& mems) const;
  /// The four L1 write-policy combinations ({wb, wt} x {alloc, no-alloc})
  /// applied to each scenario's current memory configuration.
  ScenarioSet sweep_write_policies() const;

  /// Validate every scenario (throws std::invalid_argument on the first
  /// offender, prefixed with its index and label).
  void validate_all() const;

  const std::vector<ScenarioSpec>& specs() const { return specs_; }
  size_t size() const { return specs_.size(); }
  bool empty() const { return specs_.empty(); }
  const ScenarioSpec& operator[](size_t i) const { return specs_[i]; }
  auto begin() const { return specs_.begin(); }
  auto end() const { return specs_.end(); }

 private:
  /// Throws std::invalid_argument naming `builder` when the base set is
  /// empty (a sweep over nothing would silently yield an empty campaign).
  void require_base(const char* builder) const;

  std::vector<ScenarioSpec> specs_;
};

}  // namespace higpu::exp
