#include "workloads/gaussian.h"

#include <cmath>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

/// Fan1: m[row][k] = a[row][k] / a[k][k] for row in (k, n).
/// One thread per row below the pivot.
isa::ProgramPtr build_fan1() {
  using namespace isa;
  KernelBuilder kb("gaussian_fan1");

  Reg a = kb.reg(), m = kb.reg(), n = kb.reg(), k = kb.reg();
  kb.ldp(a, 0);
  kb.ldp(m, 1);
  kb.ldp(n, 2);
  kb.ldp(k, 3);

  Reg tid = kb.global_tid_x();
  // row = k + 1 + tid
  Reg row = kb.reg();
  kb.iadd(row, tid, k);
  kb.iadd(row, row, imm(1));
  Label done = kb.label();
  util::exit_if_ge(kb, row, n, done);

  Reg a_rk = util::elem_addr2d(kb, a, row, n, k);
  Reg a_kk = util::elem_addr2d(kb, a, k, n, k);
  Reg v_rk = kb.reg(), v_kk = kb.reg(), mult = kb.reg();
  kb.ldg(v_rk, a_rk);
  kb.ldg(v_kk, a_kk);
  kb.fdiv(mult, v_rk, v_kk);
  Reg m_rk = util::elem_addr2d(kb, m, row, n, k);
  kb.stg(m_rk, mult);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

/// Fan2: a[row][col] -= m[row][k] * a[k][col] for row in (k,n), col in [k,n);
/// the col==k thread also updates b[row] -= m[row][k]*b[k].
isa::ProgramPtr build_fan2() {
  using namespace isa;
  KernelBuilder kb("gaussian_fan2");

  Reg a = kb.reg(), b = kb.reg(), m = kb.reg(), n = kb.reg(), k = kb.reg();
  kb.ldp(a, 0);
  kb.ldp(b, 1);
  kb.ldp(m, 2);
  kb.ldp(n, 3);
  kb.ldp(k, 4);

  Reg gx = kb.global_tid_x();  // column offset
  Reg gy = kb.global_tid_y();  // row offset
  Reg row = kb.reg(), col = kb.reg();
  kb.iadd(row, gy, k);
  kb.iadd(row, row, imm(1));
  kb.iadd(col, gx, k);
  Label done = kb.label();
  util::exit_if_ge(kb, row, n, done);
  util::exit_if_ge(kb, col, n, done);

  Reg m_rk = util::elem_addr2d(kb, m, row, n, k);
  Reg a_kc = util::elem_addr2d(kb, a, k, n, col);
  Reg a_rc = util::elem_addr2d(kb, a, row, n, col);
  Reg v_m = kb.reg(), v_kc = kb.reg(), v_rc = kb.reg(), prod = kb.reg();
  kb.ldg(v_m, m_rk);
  kb.ldg(v_kc, a_kc);
  kb.ldg(v_rc, a_rc);
  kb.fmul(prod, v_m, v_kc);
  kb.fsub(v_rc, v_rc, prod);
  kb.stg(a_rc, v_rc);

  // RHS update by the col==k thread.
  PredReg is_pivot_col = kb.pred();
  kb.setp(is_pivot_col, CmpOp::kEq, DType::kI32, col, k);
  Reg b_r = kb.reg(), b_k = kb.reg(), v_br = kb.reg(), v_bk = kb.reg(),
      prod2 = kb.reg();
  kb.imad(b_r, row, imm(4), b).guard_if(is_pivot_col);
  kb.imad(b_k, k, imm(4), b).guard_if(is_pivot_col);
  kb.ldg(v_br, b_r).guard_if(is_pivot_col);
  kb.ldg(v_bk, b_k).guard_if(is_pivot_col);
  kb.fmul(prod2, v_m, v_bk).guard_if(is_pivot_col);
  kb.fsub(v_br, v_br, prod2).guard_if(is_pivot_col);
  kb.stg(b_r, v_br).guard_if(is_pivot_col);

  kb.bind(done);
  kb.exit();
  return kb.build();
}

}  // namespace

void Gaussian::setup(Scale scale, u64 seed) {
  n_ = scale == Scale::kTest ? 16 : 96;
  Rng rng(seed);

  a_.resize(static_cast<size_t>(n_) * n_);
  b_.resize(n_);
  for (u32 r = 0; r < n_; ++r) {
    float row_sum = 0.0f;
    for (u32 c = 0; c < n_; ++c) {
      a_[static_cast<size_t>(r) * n_ + c] = rng.next_float(-1.0f, 1.0f);
      row_sum += std::fabs(a_[static_cast<size_t>(r) * n_ + c]);
    }
    // Diagonal dominance keeps the elimination numerically stable.
    a_[static_cast<size_t>(r) * n_ + r] += row_sum + 1.0f;
    b_[r] = rng.next_float(-1.0f, 1.0f);
  }

  // Reference elimination, mirroring the kernel arithmetic.
  ref_a_ = a_;
  ref_b_ = b_;
  std::vector<float> mult(static_cast<size_t>(n_) * n_, 0.0f);
  for (u32 k = 0; k + 1 < n_; ++k) {
    for (u32 r = k + 1; r < n_; ++r)
      mult[static_cast<size_t>(r) * n_ + k] =
          ref_a_[static_cast<size_t>(r) * n_ + k] /
          ref_a_[static_cast<size_t>(k) * n_ + k];
    for (u32 r = k + 1; r < n_; ++r) {
      const float mv = mult[static_cast<size_t>(r) * n_ + k];
      for (u32 c = k; c < n_; ++c)
        ref_a_[static_cast<size_t>(r) * n_ + c] -=
            mv * ref_a_[static_cast<size_t>(k) * n_ + c];
      ref_b_[r] -= mv * ref_b_[k];
    }
  }
  got_a_.clear();
  got_b_.clear();
}

void Gaussian::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  // Rodinia gaussian parses a textual matrix file (long decimal literals).
  const u64 input_bytes =
      static_cast<u64>(n_) * n_ * 4 + static_cast<u64>(n_) * 4;
  session.device().host_parse(input_bytes * 30);

  const u64 a_bytes = static_cast<u64>(n_) * n_ * 4;
  const u64 b_bytes = static_cast<u64>(n_) * 4;
  core::ReplicaPtr d_a = session.alloc(a_bytes);
  core::ReplicaPtr d_b = session.alloc(b_bytes);
  core::ReplicaPtr d_m = session.alloc(a_bytes);
  session.h2d(d_a, a_.data(), a_bytes);
  session.h2d(d_b, b_.data(), b_bytes);

  isa::ProgramPtr fan1 = build_fan1();
  isa::ProgramPtr fan2 = build_fan2();
  for (u32 k = 0; k + 1 < n_; ++k) {
    const u32 rows = n_ - k - 1;
    session.launch(fan1, sim::Dim3{ceil_div(rows, 64), 1, 1},
                   sim::Dim3{64, 1, 1}, {d_a, d_m, n_, k});
    const u32 cols = n_ - k;
    session.launch(fan2,
                   sim::Dim3{ceil_div(cols, 16), ceil_div(rows, 16), 1},
                   sim::Dim3{16, 16, 1}, {d_a, d_b, d_m, n_, k});
  }
  session.sync();

  got_a_.resize(ref_a_.size());
  got_b_.resize(ref_b_.size());
  session.d2h(got_a_.data(), d_a, a_bytes);
  session.d2h(got_b_.data(), d_b, b_bytes);
  session.compare(d_a, a_bytes, got_a_.data());
  session.compare(d_b, b_bytes, got_b_.data());
}

bool Gaussian::verify() const {
  return approx_equal(got_a_, ref_a_, 2e-3f) && approx_equal(got_b_, ref_b_, 2e-3f);
}

}  // namespace higpu::workloads
