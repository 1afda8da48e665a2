#include "workloads/myocyte.h"

#include <cmath>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

constexpr float kDt = 0.002f;
constexpr float kA = 0.8f;
constexpr float kB = 0.35f;
constexpr float kC = 0.6f;

/// Forward-Euler integration of y' = a*exp(-b*y) - c*y + 0.05*sin(y).
/// One thread per cell; `steps` sequential steps (uniform loop).
isa::ProgramPtr build_myocyte_kernel() {
  using namespace isa;
  KernelBuilder kb("myocyte_ode");

  Reg y0 = kb.reg(), out = kb.reg(), n = kb.reg(), steps = kb.reg();
  kb.ldp(y0, 0);
  kb.ldp(out, 1);
  kb.ldp(n, 2);
  kb.ldp(steps, 3);

  Reg tid = kb.global_tid_x();
  Label done = kb.label();
  util::exit_if_ge(kb, tid, n, done);

  Reg a_y = util::elem_addr(kb, y0, tid);
  Reg y = kb.reg();
  kb.ldg(y, a_y);

  Reg s = kb.reg();
  kb.movi(s, 0);
  Label loop = kb.label(), loop_end = kb.label();
  kb.bind(loop);
  PredReg fin = kb.pred();
  kb.setp(fin, CmpOp::kGe, DType::kI32, s, steps);
  kb.bra(loop_end).guard_if(fin);

  // rhs = a*exp(-b*y) - c*y + 0.05*sin(y)
  Reg t = kb.reg(), e = kb.reg(), rhs = kb.reg(), sn = kb.reg();
  kb.fmul(t, y, fimm(-kB));
  kb.fexp(e, t);
  kb.fmul(rhs, e, fimm(kA));
  kb.ffma(rhs, y, fimm(-kC), rhs);
  kb.fsin(sn, y);
  kb.ffma(rhs, sn, fimm(0.05f), rhs);
  // y += dt * rhs
  kb.ffma(y, rhs, fimm(kDt), y);

  kb.iadd(s, s, imm(1));
  kb.bra(loop);
  kb.bind(loop_end);

  Reg a_o = util::elem_addr(kb, out, tid);
  kb.stg(a_o, y);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

}  // namespace

void Myocyte::setup(Scale scale, u64 seed) {
  cells_ = 64;  // deliberately a single thread block
  steps_ = scale == Scale::kTest ? 64 : 4096;
  Rng rng(seed);

  y0_.resize(cells_);
  for (float& v : y0_) v = rng.next_float(0.1f, 1.0f);

  reference_.resize(cells_);
  for (u32 i = 0; i < cells_; ++i) {
    float y = y0_[i];
    for (u32 s = 0; s < steps_; ++s) {
      float rhs = std::exp(y * -kB) * kA;
      rhs = std::fma(y, -kC, rhs);
      rhs = std::fma(std::sin(y), 0.05f, rhs);
      y = std::fma(rhs, kDt, y);
    }
    reference_[i] = y;
  }
  result_.clear();
}

void Myocyte::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  // Rodinia myocyte spends substantial host time reading/writing state.
  session.device().host_parse(64 * 1024 * 8);

  const u64 bytes = static_cast<u64>(cells_) * 4;
  core::ReplicaPtr d_y0 = session.alloc(bytes);
  core::ReplicaPtr d_out = session.alloc(bytes);
  session.h2d(d_y0, y0_.data(), bytes);

  session.launch(build_myocyte_kernel(), sim::Dim3{1, 1, 1},
                 sim::Dim3{cells_, 1, 1}, {d_y0, d_out, cells_, steps_});
  session.sync();

  result_.resize(cells_);
  session.d2h(result_.data(), d_out, bytes);
  session.compare(d_out, bytes, result_.data());
}

bool Myocyte::verify() const { return approx_equal(result_, reference_, 5e-3f); }

}  // namespace higpu::workloads
