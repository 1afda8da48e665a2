#include "sim/blockexec.h"

#include <map>
#include <mutex>

#include "isa/cfg.h"
#include "isa/opcode.h"
#include "sim/executor.h"

namespace higpu::sim::blockexec {

namespace {

/// Lowered operand plan for one instruction source. Absent sources fold to
/// immediate 0, so every executor reads an unused slot as 0.
/// Register indices are baked into the trace unchecked: the launch gate
/// (isa/verify) refuses a source in a slot the opcode does not read and
/// proves every read index inside the program's declared register and
/// predicate files before a trace can run.
SrcPlan lower_src(const isa::Operand& o) {
  SrcPlan s;
  if (o.is_reg()) {
    s.reg = o.reg;
    s.is_imm = false;
  } else {
    s.is_imm = true;
    s.imm = o.present() ? o.imm : 0;
  }
  return s;
}

/// Lower the instruction at `pc` to its superop, the gate record and
/// functional step of that pc. The hazard plan's order is guard, pred_src,
/// sources in operand order, destination GPR, destination predicate.
SuperOp lower(const isa::KernelProgram& prog, isa::Pc pc) {
  const auto& ins = prog.at(pc);
  const isa::OpInfo& info = isa::op_info(ins.op);
  SuperOp s;
  s.form = info.form;
  s.op = ins.op;
  s.is_sfu = info.unit == isa::UnitClass::kSfu;
  s.is_mem = info.unit == isa::UnitClass::kMem;
  s.is_datapath = info.datapath;
  s.writes_gpr = info.writeback == isa::Writeback::kGpr;
  s.writes_pred = info.writeback == isa::Writeback::kPred;
  s.guard = ins.guard;
  s.guard_neg = ins.guard_neg;
  s.dst = ins.dst;
  s.a = lower_src(ins.src[0]);
  s.b = lower_src(ins.src[1]);
  s.c = lower_src(ins.src[2]);
  s.cmp = ins.cmp;
  s.dtype = ins.dtype;
  s.pred_src = ins.pred_src;
  s.sreg = ins.sreg;
  s.target = ins.target;
  s.reconv_pc = ins.reconv_pc;
  s.mem_offset = ins.mem_offset;

  auto haz = [&s](u16 reg, bool is_pred) {
    s.hazards[s.n_hazards++] = HazPlan{reg, is_pred};
  };
  if (ins.guard != isa::kNoPred) haz(static_cast<u16>(ins.guard), true);
  if (ins.pred_src != isa::kNoPred) haz(static_cast<u16>(ins.pred_src), true);
  for (const isa::Operand& o : ins.src)
    if (o.is_reg()) haz(o.reg, false);
  if (s.writes_gpr) haz(ins.dst, false);
  if (s.writes_pred) haz(ins.dst, true);
  return s;
}

}  // namespace

CompiledTrace::CompiledTrace(isa::ProgramPtr prog) : prog_(std::move(prog)) {
  sops_.reserve(prog_->size());
  for (isa::Pc pc = 0; pc < prog_->size(); ++pc)
    sops_.push_back(lower(*prog_, pc));

  // Fused-run statistics over the CFG: maximal spans of consecutive
  // register-only pcs within one basic block. No issue stage walks them.
  const isa::Cfg cfg(prog_->code());
  num_blocks_ = cfg.num_blocks();
  for (u32 b = 0; b < cfg.num_blocks(); ++b) {
    const isa::BasicBlock& bb = cfg.block(b);
    bool in_run = false;
    for (isa::Pc pc = bb.first; pc <= bb.last; ++pc) {
      if (lowers(sops_[pc].form)) {
        num_superops_ += 1;
        if (!in_run) {
          num_fused_runs_ += 1;
          in_run = true;
        }
      } else {
        in_run = false;
      }
    }
  }
}

namespace {

/// Process-wide trace cache. Values are weak so the cache never extends a
/// program's lifetime; a live trace pins its program (CompiledTrace holds
/// the ProgramPtr), so a non-expired entry's pointer key cannot alias a
/// different program. Expired entries are reaped on every miss.
std::mutex g_cache_mu;
std::map<const isa::KernelProgram*, std::weak_ptr<const CompiledTrace>>
    g_cache;  // NOLINT(runtime/global) — intentional process-wide cache

}  // namespace

TracePtr trace_for(const isa::ProgramPtr& prog) {
  std::lock_guard<std::mutex> lock(g_cache_mu);
  auto it = g_cache.find(prog.get());
  if (it != g_cache.end()) {
    if (TracePtr t = it->second.lock()) return t;
  }
  for (auto e = g_cache.begin(); e != g_cache.end();)
    e = e->second.expired() ? g_cache.erase(e) : std::next(e);
  TracePtr t = std::make_shared<const CompiledTrace>(prog);
  g_cache[prog.get()] = t;
  return t;
}

u64 trace_cache_live() {
  std::lock_guard<std::mutex> lock(g_cache_mu);
  u64 n = 0;
  for (const auto& [_, w] : g_cache) n += !w.expired();
  return n;
}

// ---- Lane-vector kernels ---------------------------------------------------
//
// Each kernel is the width-32 form of one eval_alu case over contiguous
// register rows. The full-mask path is a branch-free loop the compiler can
// autovectorize; the partial-mask path keeps per-lane conditional stores so
// inactive lanes are never written (their stale values are architectural
// state — snapshots hash them). Bit-exactness with eval_alu is a hard
// contract: integer ops are trivially exact, and the float ops use the very
// same IEEE-754 single operations (std::fma/fmin/fmax included), which SIMD
// lanes evaluate identically to scalar — verified per-op against edge inputs
// (NaN, infinities, denormals) by tests/blockexec_test.cpp and across
// optimization levels by the -O0/-O3 CI reproducibility job.

namespace {

template <class F>
inline void lanes(u32* d, u32 mask, F&& f) {
  if (mask == 0xFFFFFFFFu) {
    for (u32 i = 0; i < 32; ++i) d[i] = f(i);
  } else {
    for (u32 i = 0; i < 32; ++i)
      if ((mask >> i) & 1u) d[i] = f(i);
  }
}

}  // namespace

void run_vkernel(isa::Op op, u32* d, const u32* a, const u32* b, const u32* c,
                 u32 mask) {
  using isa::Op;
  const auto sa = [&](u32 i) { return static_cast<i32>(a[i]); };
  const auto sb = [&](u32 i) { return static_cast<i32>(b[i]); };
  const auto fa = [&](u32 i) { return bits2f(a[i]); };
  const auto fb = [&](u32 i) { return bits2f(b[i]); };
  const auto fc = [&](u32 i) { return bits2f(c[i]); };
  switch (op) {
    case Op::kMov:
      lanes(d, mask, [&](u32 i) { return a[i]; });
      break;
    case Op::kIadd:
      lanes(d, mask, [&](u32 i) { return a[i] + b[i]; });
      break;
    case Op::kIsub:
      lanes(d, mask, [&](u32 i) { return a[i] - b[i]; });
      break;
    case Op::kImul:
      lanes(d, mask, [&](u32 i) { return a[i] * b[i]; });
      break;
    case Op::kImad:
      lanes(d, mask, [&](u32 i) { return a[i] * b[i] + c[i]; });
      break;
    case Op::kImin:
      lanes(d, mask, [&](u32 i) {
        return static_cast<u32>(sa(i) < sb(i) ? sa(i) : sb(i));
      });
      break;
    case Op::kImax:
      lanes(d, mask, [&](u32 i) {
        return static_cast<u32>(sa(i) > sb(i) ? sa(i) : sb(i));
      });
      break;
    case Op::kAnd:
      lanes(d, mask, [&](u32 i) { return a[i] & b[i]; });
      break;
    case Op::kOr:
      lanes(d, mask, [&](u32 i) { return a[i] | b[i]; });
      break;
    case Op::kXor:
      lanes(d, mask, [&](u32 i) { return a[i] ^ b[i]; });
      break;
    case Op::kNot:
      lanes(d, mask, [&](u32 i) { return ~a[i]; });
      break;
    case Op::kShl:
      lanes(d, mask, [&](u32 i) { return a[i] << (b[i] & 31); });
      break;
    case Op::kShr:
      lanes(d, mask, [&](u32 i) { return a[i] >> (b[i] & 31); });
      break;
    case Op::kSra:
      lanes(d, mask, [&](u32 i) {
        return static_cast<u32>(sa(i) >> (b[i] & 31));
      });
      break;
    // Float kernels share eval_alu's canonicalization helpers (canon_f,
    // fmin_bits, fmax_bits): NaN results and +-0 min/max ties are pinned to
    // one bit pattern, so scalar and vectorized codegen cannot diverge.
    case Op::kFadd:
      lanes(d, mask, [&](u32 i) { return canon_f(fa(i) + fb(i)); });
      break;
    case Op::kFsub:
      lanes(d, mask, [&](u32 i) { return canon_f(fa(i) - fb(i)); });
      break;
    case Op::kFmul:
      lanes(d, mask, [&](u32 i) { return canon_f(fa(i) * fb(i)); });
      break;
    case Op::kFfma:
      lanes(d, mask,
            [&](u32 i) { return canon_f(std::fma(fa(i), fb(i), fc(i))); });
      break;
    case Op::kFmin:
      lanes(d, mask, [&](u32 i) { return fmin_bits(a[i], b[i]); });
      break;
    case Op::kFmax:
      lanes(d, mask, [&](u32 i) { return fmax_bits(a[i], b[i]); });
      break;
    case Op::kFabs:
      lanes(d, mask, [&](u32 i) { return a[i] & 0x7FFFFFFFu; });
      break;
    case Op::kFneg:
      lanes(d, mask, [&](u32 i) { return a[i] ^ 0x80000000u; });
      break;
    case Op::kI2f:
      lanes(d, mask, [&](u32 i) { return f2bits(static_cast<float>(sa(i))); });
      break;
    case Op::kF2i:
      // Keep the saturating semantics routed through the single scalar
      // implementation: NaN/out-of-range handling must stay one source of
      // truth with eval_alu.
      lanes(d, mask, [&](u32 i) { return eval_alu(Op::kF2i, a[i], 0, 0); });
      break;
    default:  // SFU transcendentals, div, sqrt, rcp
      lanes(d, mask, [&](u32 i) { return eval_alu(op, a[i], b[i], c[i]); });
      break;
  }
}

}  // namespace higpu::sim::blockexec
