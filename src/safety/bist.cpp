#include "safety/bist.h"

#include <map>

#include "isa/builder.h"

namespace higpu::safety {

namespace {

/// Canary: out[gid] = gid * 3 + 1. Trivial but produces a comparable output.
isa::ProgramPtr build_canary() {
  isa::KernelBuilder kb("sched_bist_canary");
  isa::Reg gid = kb.global_tid_x();
  isa::Reg out = kb.reg(), v = kb.reg(), addr = kb.reg();
  kb.ldp(out, 0);
  kb.imad(v, gid, isa::imm(3), isa::imm(1));
  kb.imad(addr, gid, isa::imm(4), out);
  kb.stg(addr, v);
  kb.exit();
  return kb.build();
}

}  // namespace

BistResult run_scheduler_bist(runtime::Device& dev, sched::Policy policy) {
  BistResult res;

  core::ExecSession::Config cfg;
  cfg.policy = policy;
  cfg.redundancy = core::RedundancySpec::dcls();
  core::ExecSession session(dev, cfg);

  const u32 num_sms = dev.gpu().num_sms();
  const u32 blocks = 2 * num_sms;  // wraps around the SM ring at least twice
  const u32 threads = 32;
  const u64 bytes = static_cast<u64>(blocks) * threads * 4;

  isa::ProgramPtr canary = build_canary();
  core::ReplicaPtr out = session.alloc(bytes);
  // Block records are only ever appended: the BIST's own blocks all land
  // after this point, so the scan below skips the device's earlier history.
  const size_t first_record = dev.gpu().block_records().size();
  session.launch(canary, sim::Dim3{blocks, 1, 1}, sim::Dim3{threads, 1, 1},
                 {core::ReplicaParam(out)}, "bist");
  session.sync();
  res.output_mismatch = !session.compare(out, bytes).unanimous;

  const auto [id_a, id_b] = session.pairs().back();
  std::map<u32, u32> sm_of_a, sm_of_b;  // block -> actual SM
  const std::vector<sim::BlockRecord>& records = dev.gpu().block_records();
  for (size_t i = first_record; i < records.size(); ++i) {
    const sim::BlockRecord& r = records[i];
    if (r.launch_id == id_a) sm_of_a[r.block_linear] = r.sm;
    if (r.launch_id == id_b) sm_of_b[r.block_linear] = r.sm;
  }

  const sim::SchedHints hints_a = dev.gpu().launch_of(id_a).hints;
  const sim::SchedHints hints_b = dev.gpu().launch_of(id_b).hints;
  auto check_copy = [&](const std::map<u32, u32>& sm_of,
                        const sim::SchedHints& hints) {
    for (const auto& [block, sm] : sm_of) {
      res.blocks_checked += 1;
      bool ok = true;
      switch (policy) {
        case sched::Policy::kSrrs:
          ok = sm == (hints.start_sm + block) % num_sms;
          break;
        case sched::Policy::kHalf:
          ok = hints.sm_allowed(sm);
          break;
        case sched::Policy::kDefault:
          ok = true;  // baseline has no mapping contract to check
          break;
      }
      if (!ok) res.placement_violations += 1;
    }
  };
  check_copy(sm_of_a, hints_a);
  check_copy(sm_of_b, hints_b);

  for (const auto& [block, sm] : sm_of_a) {
    auto it = sm_of_b.find(block);
    if (it != sm_of_b.end() && it->second == sm) res.diversity_violations += 1;
  }

  res.pass = res.placement_violations == 0 && res.diversity_violations == 0 &&
             !res.output_mismatch;
  return res;
}

}  // namespace higpu::safety
