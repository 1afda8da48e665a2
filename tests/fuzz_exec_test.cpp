// Differential fuzzing of the SIMT execution engine: random straight-line
// programs (ALU + predication + SELP/SETP, with guards) are executed on the
// simulator (its compiled records and lane kernels) and on an
// independent per-thread reference interpreter written here with plain C++
// operators. Any divergence in operand routing, guard masking, writeback
// ordering or warp scheduling shows up as a mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "isa/builder.h"
#include "isa/verify/verify.h"
#include "memsys/global_store.h"
#include "sched/policies.h"
#include "sim/blockexec.h"
#include "sim/gpu.h"
#include "tests/issue_gate_walk.h"

namespace higpu {
namespace {

constexpr u32 kDataRegs = 8;   // r0..r7 hold live data
constexpr u32 kPreds = 4;
constexpr u32 kProgramLen = 60;
constexpr u32 kThreads = 64;   // two warps

struct FuzzOp {
  isa::Op op;
  u32 dst;          // data register index (or predicate index for kSetp)
  u32 a, b, c;      // data register indices
  bool b_imm;       // use an immediate for operand b
  u32 imm_bits;
  isa::CmpOp cmp;
  bool is_float_cmp;
  u32 pred;         // predicate source for setp.and / selp
  i32 guard;        // -1 = unguarded, else predicate index
  bool guard_neg;
  bool clamp;       // float result: clamp to +-1e6 to keep programs NaN-free
                    // (NaN payload bits are not pinned by IEEE-754, so a
                    // payload surviving into an int op would be a false
                    // positive; fmin(NaN, 1e6) == 1e6 squashes them
                    // identically on both sides)
};

/// Ops safe under arbitrary operand values (no div/NaN surprises; float ops
/// stay finite because inputs are bounded and programs are short).
const isa::Op kIntOps[] = {isa::Op::kIadd, isa::Op::kIsub, isa::Op::kImul,
                           isa::Op::kImad, isa::Op::kImin, isa::Op::kImax,
                           isa::Op::kAnd,  isa::Op::kOr,   isa::Op::kXor,
                           isa::Op::kShl,  isa::Op::kShr,  isa::Op::kSra};
const isa::Op kFloatOps[] = {isa::Op::kFadd, isa::Op::kFsub, isa::Op::kFmul,
                             isa::Op::kFfma, isa::Op::kFmin, isa::Op::kFmax};

std::vector<FuzzOp> random_program(Rng& rng) {
  std::vector<FuzzOp> prog;
  for (u32 i = 0; i < kProgramLen; ++i) {
    FuzzOp f{};
    const u32 kind = static_cast<u32>(rng.next_below(10));
    if (kind < 4) {
      f.op = kIntOps[rng.next_below(std::size(kIntOps))];
    } else if (kind < 7) {
      f.op = kFloatOps[rng.next_below(std::size(kFloatOps))];
    } else if (kind < 8) {
      f.op = isa::Op::kSetp;
    } else {
      f.op = isa::Op::kSelp;
    }
    f.dst = static_cast<u32>(rng.next_below(f.op == isa::Op::kSetp ? kPreds : kDataRegs));
    f.a = static_cast<u32>(rng.next_below(kDataRegs));
    f.b = static_cast<u32>(rng.next_below(kDataRegs));
    f.c = static_cast<u32>(rng.next_below(kDataRegs));
    f.b_imm = rng.next_bool(0.3f);
    // Immediates: small ints for int ops, small floats for float ops.
    const bool is_float =
        std::find(std::begin(kFloatOps), std::end(kFloatOps), f.op) !=
        std::end(kFloatOps);
    f.imm_bits = is_float ? f2bits(rng.next_float(-2.0f, 2.0f))
                          : static_cast<u32>(rng.next_below(64));
    f.cmp = static_cast<isa::CmpOp>(rng.next_below(6));
    f.is_float_cmp = rng.next_bool(0.5f);
    f.pred = static_cast<u32>(rng.next_below(kPreds));
    f.guard = rng.next_bool(0.3f) ? static_cast<i32>(rng.next_below(kPreds)) : -1;
    f.guard_neg = rng.next_bool(0.5f);
    f.clamp = is_float;
    prog.push_back(f);
  }
  return prog;
}

/// Independent reference interpreter: plain C++ operators, per thread.
struct RefThread {
  u32 r[kDataRegs];
  bool p[kPreds];
};

void ref_execute(const std::vector<FuzzOp>& prog, RefThread& t) {
  auto fbits = [](float f) { return std::bit_cast<u32>(f); };
  auto bitsf = [](u32 b) { return std::bit_cast<float>(b); };
  for (const FuzzOp& f : prog) {
    if (f.guard >= 0 && t.p[f.guard] == f.guard_neg) continue;
    const u32 a = t.r[f.a];
    const u32 b = f.b_imm ? f.imm_bits : t.r[f.b];
    const u32 c = t.r[f.c];
    switch (f.op) {
      case isa::Op::kIadd: t.r[f.dst] = a + b; break;
      case isa::Op::kIsub: t.r[f.dst] = a - b; break;
      case isa::Op::kImul: t.r[f.dst] = a * b; break;
      case isa::Op::kImad: t.r[f.dst] = a * b + c; break;
      case isa::Op::kImin:
        t.r[f.dst] = static_cast<u32>(
            std::min(static_cast<i32>(a), static_cast<i32>(b)));
        break;
      case isa::Op::kImax:
        t.r[f.dst] = static_cast<u32>(
            std::max(static_cast<i32>(a), static_cast<i32>(b)));
        break;
      case isa::Op::kAnd: t.r[f.dst] = a & b; break;
      case isa::Op::kOr: t.r[f.dst] = a | b; break;
      case isa::Op::kXor: t.r[f.dst] = a ^ b; break;
      case isa::Op::kShl: t.r[f.dst] = a << (b & 31); break;
      case isa::Op::kShr: t.r[f.dst] = a >> (b & 31); break;
      case isa::Op::kSra:
        t.r[f.dst] = static_cast<u32>(static_cast<i32>(a) >> (b & 31));
        break;
      case isa::Op::kFadd: t.r[f.dst] = fbits(bitsf(a) + bitsf(b)); break;
      case isa::Op::kFsub: t.r[f.dst] = fbits(bitsf(a) - bitsf(b)); break;
      case isa::Op::kFmul: t.r[f.dst] = fbits(bitsf(a) * bitsf(b)); break;
      case isa::Op::kFfma:
        t.r[f.dst] = fbits(std::fma(bitsf(a), bitsf(b), bitsf(c)));
        break;
      case isa::Op::kFmin: t.r[f.dst] = fbits(std::fmin(bitsf(a), bitsf(b))); break;
      case isa::Op::kFmax: t.r[f.dst] = fbits(std::fmax(bitsf(a), bitsf(b))); break;
      case isa::Op::kSetp: {
        bool res = false;
        if (f.is_float_cmp) {
          const float x = bitsf(a), y = bitsf(b);
          switch (f.cmp) {
            case isa::CmpOp::kLt: res = x < y; break;
            case isa::CmpOp::kLe: res = x <= y; break;
            case isa::CmpOp::kGt: res = x > y; break;
            case isa::CmpOp::kGe: res = x >= y; break;
            case isa::CmpOp::kEq: res = x == y; break;
            case isa::CmpOp::kNe: res = x != y; break;
          }
        } else {
          const i32 x = static_cast<i32>(a), y = static_cast<i32>(b);
          switch (f.cmp) {
            case isa::CmpOp::kLt: res = x < y; break;
            case isa::CmpOp::kLe: res = x <= y; break;
            case isa::CmpOp::kGt: res = x > y; break;
            case isa::CmpOp::kGe: res = x >= y; break;
            case isa::CmpOp::kEq: res = x == y; break;
            case isa::CmpOp::kNe: res = x != y; break;
          }
        }
        t.p[f.dst] = res;
        break;
      }
      case isa::Op::kSelp:
        t.r[f.dst] = t.p[f.pred] ? a : b;
        break;
      default:
        FAIL() << "unexpected op in fuzz program";
    }
    if (f.clamp && f.op != isa::Op::kSetp) {
      const float v = bitsf(t.r[f.dst]);
      t.r[f.dst] = fbits(std::fmax(std::fmin(v, 1e6f), -1e6f));
    }
  }
}

/// Build the equivalent simulator kernel: seed r0..r7 from the thread id,
/// run the program, store all data registers to out[tid*kDataRegs + i].
isa::ProgramPtr build_kernel(const std::vector<FuzzOp>& prog) {
  using namespace isa;
  KernelBuilder kb("fuzz");
  Reg out = kb.reg();
  kb.ldp(out, 0);
  Reg tid = kb.global_tid_x();

  std::vector<Reg> r(kDataRegs);
  std::vector<PredReg> p(kPreds);
  for (u32 i = 0; i < kDataRegs; ++i) r[i] = kb.reg();
  for (u32 i = 0; i < kPreds; ++i) p[i] = kb.pred();

  // Seed: r[i] = (tid + 1) * (2i + 3) as int; odd regs as floats of that.
  for (u32 i = 0; i < kDataRegs; ++i) {
    Reg t = kb.reg();
    kb.iadd(t, tid, imm(1));
    kb.imul(r[i], t, imm(static_cast<i32>(2 * i + 3)));
    if (i % 2 == 1) kb.i2f(r[i], r[i]);
  }
  // Seed predicates deterministically: p[i] = (tid & (1<<i)) != 0.
  for (u32 i = 0; i < kPreds; ++i) {
    Reg t = kb.reg();
    kb.and_(t, tid, imm(static_cast<i32>(1u << i)));
    kb.setp(p[i], CmpOp::kNe, DType::kI32, t, imm(0));
  }

  for (const FuzzOp& f : prog) {
    Operand b = f.b_imm ? Operand(immu(f.imm_bits)) : Operand(r[f.b]);
    Instruction* ins = nullptr;
    switch (f.op) {
      case Op::kImad:
        ins = &kb.imad(r[f.dst], r[f.a], b, r[f.c]);
        break;
      case Op::kFfma:
        ins = &kb.ffma(r[f.dst], r[f.a], b, r[f.c]);
        break;
      case Op::kSetp:
        ins = &kb.setp(p[f.dst], f.cmp,
                       f.is_float_cmp ? DType::kF32 : DType::kI32, r[f.a], b);
        break;
      case Op::kSelp:
        ins = &kb.selp(r[f.dst], r[f.a], b, p[f.pred]);
        break;
      default: {
        // Route through the builder's named two-source emitters.
        switch (f.op) {
          case Op::kIadd: ins = &kb.iadd(r[f.dst], r[f.a], b); break;
          case Op::kIsub: ins = &kb.isub(r[f.dst], r[f.a], b); break;
          case Op::kImul: ins = &kb.imul(r[f.dst], r[f.a], b); break;
          case Op::kImin: ins = &kb.imin(r[f.dst], r[f.a], b); break;
          case Op::kImax: ins = &kb.imax(r[f.dst], r[f.a], b); break;
          case Op::kAnd: ins = &kb.and_(r[f.dst], r[f.a], b); break;
          case Op::kOr: ins = &kb.or_(r[f.dst], r[f.a], b); break;
          case Op::kXor: ins = &kb.xor_(r[f.dst], r[f.a], b); break;
          case Op::kShl: ins = &kb.shl(r[f.dst], r[f.a], b); break;
          case Op::kShr: ins = &kb.shr(r[f.dst], r[f.a], b); break;
          case Op::kSra: ins = &kb.sra(r[f.dst], r[f.a], b); break;
          case Op::kFadd: ins = &kb.fadd(r[f.dst], r[f.a], b); break;
          case Op::kFsub: ins = &kb.fsub(r[f.dst], r[f.a], b); break;
          case Op::kFmul: ins = &kb.fmul(r[f.dst], r[f.a], b); break;
          case Op::kFmin: ins = &kb.fmin(r[f.dst], r[f.a], b); break;
          case Op::kFmax: ins = &kb.fmax(r[f.dst], r[f.a], b); break;
          default: break;
        }
        break;
      }
    }
    if (ins == nullptr) throw std::logic_error("unhandled fuzz op");
    auto apply_guard = [&](Instruction& instr) {
      if (f.guard < 0) return;
      if (f.guard_neg)
        instr.guard_ifnot(p[f.guard]);
      else
        instr.guard_if(p[f.guard]);
    };
    apply_guard(*ins);
    if (f.clamp && f.op != Op::kSetp) {
      apply_guard(kb.fmin(r[f.dst], r[f.dst], fimm(1e6f)));
      apply_guard(kb.fmax(r[f.dst], r[f.dst], fimm(-1e6f)));
    }
  }

  // Store out[tid*kDataRegs + i] = r[i].
  Reg base = kb.reg(), addr = kb.reg();
  kb.imul(base, tid, imm(static_cast<i32>(kDataRegs * 4)));
  kb.iadd(base, base, out);
  for (u32 i = 0; i < kDataRegs; ++i) {
    kb.iadd(addr, base, imm(static_cast<i32>(i * 4)));
    kb.stg(addr, r[i]);
  }
  kb.exit();
  return kb.build();
}

class FuzzExec : public ::testing::TestWithParam<u64> {};

TEST_P(FuzzExec, SimMatchesReferenceInterpreter) {
  Rng rng(GetParam() * 0x9E3779B9u + 1);
  const std::vector<FuzzOp> prog = random_program(rng);

  // Reference.
  std::vector<RefThread> ref(kThreads);
  for (u32 t = 0; t < kThreads; ++t) {
    for (u32 i = 0; i < kDataRegs; ++i) {
      ref[t].r[i] = (t + 1) * (2 * i + 3);
      if (i % 2 == 1)
        ref[t].r[i] = f2bits(static_cast<float>(static_cast<i32>(ref[t].r[i])));
    }
    for (u32 i = 0; i < kPreds; ++i) ref[t].p[i] = (t & (1u << i)) != 0;
    ref_execute(prog, ref[t]);
  }

  const isa::ProgramPtr kernel = build_kernel(prog);
  // Static-verifier oracle: every generated program must analyze clean.
  // These launches go straight to Gpu::launch, bypassing the Device gate,
  // so the fuzzer exercises the verifier explicitly — a false positive
  // here means the analysis would refuse a legal program.
  const isa::verify::Result vr = isa::verify::verify(*kernel);
  ASSERT_TRUE(vr.ok()) << "seed " << GetParam() << ":\n" << vr.to_string();

  // The simulator must match the reference on every thread and register.
  memsys::GlobalStore store;
  sim::Gpu gpu(sim::GpuParams{}, &store);
  gpu.set_kernel_scheduler(std::make_unique<sched::DefaultKernelScheduler>());
  const memsys::DevPtr out = store.alloc(kThreads * kDataRegs * 4);
  sim::KernelLaunch launch;
  launch.program = kernel;
  launch.grid = {1, 1, 1};
  launch.block = {kThreads, 1, 1};
  launch.params = {out};
  gpu.launch(std::move(launch));
  gpu.run_until_idle(20'000'000);

  for (u32 t = 0; t < kThreads; ++t)
    for (u32 i = 0; i < kDataRegs; ++i)
      ASSERT_EQ(store.read32(out + (t * kDataRegs + i) * 4), ref[t].r[i])
          << "seed " << GetParam() << " thread " << t << " reg " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzExec,
                         ::testing::Range<u64>(1, 25));

// Every pc of the programs FuzzExec runs gets a compiled record that agrees
// with the instruction walk (tests/issue_gate_walk.h). The generator emits
// straight-line register code and global stores only, so the walk also
// checks a kernel with the branch, shared-memory, atomic and offset forms.
TEST(IssueGate, RecordMatchesInstructionWalkOnFuzzPrograms) {
  testing::WalkCoverage cov;
  for (u64 seed = 1; seed < 25; ++seed) {
    Rng rng(seed * 0x9E3779B9u + 1);
    const isa::ProgramPtr kernel = build_kernel(random_program(rng));
    testing::expect_records_match_walk(
        *kernel, *sim::blockexec::trace_for(kernel), cov);
  }
  const isa::ProgramPtr every = testing::make_every_form_kernel();
  ASSERT_TRUE(isa::verify::verify(*every).ok());
  testing::expect_records_match_walk(*every, *sim::blockexec::trace_for(every),
                                     cov);
  cov.expect_complete();
}

}  // namespace
}  // namespace higpu
