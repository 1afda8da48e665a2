#include "workloads/backprop.h"

#include <cmath>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

constexpr float kLearnRate = 0.3f;

/// Layer-forward partial sums. Block = 16x16 (ty = input row within chunk,
/// tx = hidden unit). shared[ty][tx] = in[row] * w[row][tx]; tree-reduce
/// over ty; thread row 0 writes partial[block][tx].
isa::ProgramPtr build_layerforward() {
  using namespace isa;
  KernelBuilder kb("bp_layerforward");
  kb.set_shared_bytes(16 * 16 * 4);

  Reg in = kb.reg(), w = kb.reg(), partial = kb.reg();
  kb.ldp(in, 0);
  kb.ldp(w, 1);
  kb.ldp(partial, 2);

  Reg tx = kb.reg(), ty = kb.reg(), cta = kb.reg();
  kb.s2r(tx, SReg::kTidX);
  kb.s2r(ty, SReg::kTidY);
  kb.s2r(cta, SReg::kCtaIdX);

  // row = cta*16 + ty
  Reg row = kb.reg();
  kb.imad(row, cta, imm(16), ty);

  // shared[ty*16+tx] = in[row] * w[row*16+tx]
  Reg a_in = util::elem_addr(kb, in, row);
  Reg v_in = kb.reg();
  kb.ldg(v_in, a_in);
  Reg a_w = util::elem_addr2d(kb, w, row, imm(16), tx);
  Reg v_w = kb.reg(), prod = kb.reg();
  kb.ldg(v_w, a_w);
  kb.fmul(prod, v_in, v_w);

  Reg sh_idx = kb.reg(), sh_addr = kb.reg();
  kb.imad(sh_idx, ty, imm(16), tx);
  kb.imul(sh_addr, sh_idx, imm(4));
  kb.sts(sh_addr, prod);
  kb.bar();

  // Tree reduction over ty: s = 8,4,2,1.
  Reg other = kb.reg(), mine = kb.reg(), oaddr = kb.reg();
  for (u32 s = 8; s >= 1; s /= 2) {
    PredReg active = kb.pred();
    kb.setp(active, CmpOp::kLt, DType::kI32, ty, imm(static_cast<i32>(s)));
    // other = shared[(ty+s)*16+tx]; mine = shared[ty*16+tx]; mine += other
    kb.iadd(oaddr, sh_addr, imm(static_cast<i32>(s * 16 * 4))).guard_if(active);
    kb.lds(other, oaddr).guard_if(active);
    kb.lds(mine, sh_addr).guard_if(active);
    kb.fadd(mine, mine, other).guard_if(active);
    kb.sts(sh_addr, mine).guard_if(active);
    kb.bar();
  }

  // partial[cta*16 + tx] = shared[tx] (row 0)
  PredReg is_row0 = kb.pred();
  kb.setp(is_row0, CmpOp::kEq, DType::kI32, ty, imm(0));
  Reg out_idx = kb.reg(), out_addr = kb.reg(), result = kb.reg(),
      tx4 = kb.reg();
  kb.imad(out_idx, cta, imm(16), tx).guard_if(is_row0);
  kb.imad(out_addr, out_idx, imm(4), partial).guard_if(is_row0);
  kb.imul(tx4, tx, imm(4)).guard_if(is_row0);
  kb.lds(result, tx4).guard_if(is_row0);
  kb.stg(out_addr, result).guard_if(is_row0);
  kb.exit();
  return kb.build();
}

/// Weight adjustment: w[row][tx] += lr * delta[tx] * in[row].
isa::ProgramPtr build_adjust_weights() {
  using namespace isa;
  KernelBuilder kb("bp_adjust_weights");

  Reg in = kb.reg(), w = kb.reg(), delta = kb.reg();
  kb.ldp(in, 0);
  kb.ldp(w, 1);
  kb.ldp(delta, 2);

  Reg tx = kb.reg(), ty = kb.reg(), cta = kb.reg();
  kb.s2r(tx, SReg::kTidX);
  kb.s2r(ty, SReg::kTidY);
  kb.s2r(cta, SReg::kCtaIdX);
  Reg row = kb.reg();
  kb.imad(row, cta, imm(16), ty);

  Reg a_in = util::elem_addr(kb, in, row);
  Reg a_d = util::elem_addr(kb, delta, tx);
  Reg a_w = util::elem_addr2d(kb, w, row, imm(16), tx);
  Reg v_in = kb.reg(), v_d = kb.reg(), v_w = kb.reg(), step = kb.reg();
  kb.ldg(v_in, a_in);
  kb.ldg(v_d, a_d);
  kb.ldg(v_w, a_w);
  kb.fmul(step, v_d, v_in);
  kb.ffma(v_w, step, fimm(kLearnRate), v_w);
  kb.stg(a_w, v_w);
  kb.exit();
  return kb.build();
}

}  // namespace

void Backprop::setup(Scale scale, u64 seed) {
  n_in_ = scale == Scale::kTest ? 256 : 4096;
  Rng rng(seed);

  input_.resize(n_in_);
  weights_.resize(static_cast<size_t>(n_in_) * kHidden);
  delta_.resize(kHidden);
  for (float& v : input_) v = rng.next_float(-1.0f, 1.0f);
  for (float& v : weights_) v = rng.next_float(-0.5f, 0.5f);
  for (float& v : delta_) v = rng.next_float(-0.1f, 0.1f);

  // Reference partial sums, mirroring the kernel's tree-reduction order.
  const u32 chunks = n_in_ / 16;
  ref_partial_.assign(static_cast<size_t>(chunks) * kHidden, 0.0f);
  for (u32 b = 0; b < chunks; ++b) {
    for (u32 tx = 0; tx < kHidden; ++tx) {
      float v[16];
      for (u32 ty = 0; ty < 16; ++ty) {
        const u32 row = b * 16 + ty;
        v[ty] = input_[row] * weights_[static_cast<size_t>(row) * 16 + tx];
      }
      for (u32 s = 8; s >= 1; s /= 2)
        for (u32 ty = 0; ty < s; ++ty) v[ty] += v[ty + s];
      ref_partial_[static_cast<size_t>(b) * 16 + tx] = v[0];
    }
  }

  // Reference adjusted weights.
  ref_weights_ = weights_;
  for (u32 row = 0; row < n_in_; ++row)
    for (u32 tx = 0; tx < kHidden; ++tx)
      ref_weights_[static_cast<size_t>(row) * 16 + tx] = std::fma(
          delta_[tx] * input_[row], kLearnRate,
          ref_weights_[static_cast<size_t>(row) * 16 + tx]);

  got_partial_.clear();
  got_weights_.clear();
}

void Backprop::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  // Rodinia backprop synthesizes inputs and runs several CPU training
  // phases (output layer, hidden error) around the offloaded kernels.
  const u64 input_bytes = static_cast<u64>(n_in_) * 4 * (1 + kHidden);
  session.device().host_generate(input_bytes);
  session.device().host_compute(8 * input_bytes);

  const u32 chunks = n_in_ / 16;
  const u64 in_bytes = static_cast<u64>(n_in_) * 4;
  const u64 w_bytes = static_cast<u64>(n_in_) * kHidden * 4;
  const u64 partial_bytes = static_cast<u64>(chunks) * kHidden * 4;

  core::ReplicaPtr d_in = session.alloc(in_bytes);
  core::ReplicaPtr d_w = session.alloc(w_bytes);
  core::ReplicaPtr d_delta = session.alloc(kHidden * 4);
  core::ReplicaPtr d_partial = session.alloc(partial_bytes);
  session.h2d(d_in, input_.data(), in_bytes);
  session.h2d(d_w, weights_.data(), w_bytes);
  session.h2d(d_delta, delta_.data(), kHidden * 4);

  session.launch(build_layerforward(), sim::Dim3{chunks, 1, 1},
                 sim::Dim3{16, 16, 1}, {d_in, d_w, d_partial});
  session.launch(build_adjust_weights(), sim::Dim3{chunks, 1, 1},
                 sim::Dim3{16, 16, 1}, {d_in, d_w, d_delta});
  session.sync();

  got_partial_.resize(ref_partial_.size());
  got_weights_.resize(ref_weights_.size());
  session.d2h(got_partial_.data(), d_partial, partial_bytes);
  session.d2h(got_weights_.data(), d_w, w_bytes);
  session.compare(d_partial, partial_bytes, got_partial_.data());
  session.compare(d_w, w_bytes, got_weights_.data());
}

bool Backprop::verify() const {
  return approx_equal(got_partial_, ref_partial_) &&
         approx_equal(got_weights_, ref_weights_);
}

}  // namespace higpu::workloads
