#include "workloads/hotspot.h"

#include <cmath>

#include "isa/builder.h"

namespace higpu::workloads {

namespace {

constexpr float kC1 = 0.12f;  // lateral conduction coefficient
constexpr float kC2 = 0.04f;  // power injection coefficient

/// out[y*dim+x] = t + c1*(tN+tS+tE+tW - 4t) + c2*power, borders clamped.
isa::ProgramPtr build_hotspot_kernel() {
  using namespace isa;
  KernelBuilder kb("hotspot_step");

  Reg in = kb.reg(), out = kb.reg(), pw = kb.reg(), dim = kb.reg();
  kb.ldp(in, 0);
  kb.ldp(out, 1);
  kb.ldp(pw, 2);
  kb.ldp(dim, 3);

  Reg gx = kb.global_tid_x();
  Reg gy = kb.global_tid_y();

  Label done = kb.label();
  PredReg oob = kb.pred();
  kb.setp(oob, CmpOp::kGe, DType::kI32, gx, dim);
  kb.bra(done).guard_if(oob);
  kb.setp(oob, CmpOp::kGe, DType::kI32, gy, dim);
  kb.bra(done).guard_if(oob);

  // Clamped neighbour coordinates.
  Reg dm1 = kb.reg();
  kb.isub(dm1, dim, imm(1));
  Reg xm = kb.reg(), xp = kb.reg(), ym = kb.reg(), yp = kb.reg();
  Reg t0 = kb.reg();
  kb.isub(t0, gx, imm(1));
  kb.imax(xm, t0, imm(0));
  kb.iadd(t0, gx, imm(1));
  kb.imin(xp, t0, dm1);
  kb.isub(t0, gy, imm(1));
  kb.imax(ym, t0, imm(0));
  kb.iadd(t0, gy, imm(1));
  kb.imin(yp, t0, dm1);

  // Addresses (4-byte words).
  auto addr2d = [&](Reg y, Reg x, Reg base) {
    Reg lin = kb.reg(), a = kb.reg();
    kb.imad(lin, y, dim, x);
    kb.imad(a, lin, imm(4), base);
    return a;
  };
  Reg a_c = addr2d(gy, gx, in);
  Reg a_n = addr2d(ym, gx, in);
  Reg a_s = addr2d(yp, gx, in);
  Reg a_e = addr2d(gy, xp, in);
  Reg a_w = addr2d(gy, xm, in);
  Reg a_p = addr2d(gy, gx, pw);
  Reg a_o = addr2d(gy, gx, out);

  Reg t = kb.reg(), tn = kb.reg(), ts = kb.reg(), te = kb.reg(), tw = kb.reg(),
      p = kb.reg();
  kb.ldg(t, a_c);
  kb.ldg(tn, a_n);
  kb.ldg(ts, a_s);
  kb.ldg(te, a_e);
  kb.ldg(tw, a_w);
  kb.ldg(p, a_p);

  // sum = tn+ts+te+tw - 4t ; result = t + c1*sum + c2*p
  Reg sum = kb.reg(), res = kb.reg();
  kb.fadd(sum, tn, ts);
  kb.fadd(sum, sum, te);
  kb.fadd(sum, sum, tw);
  kb.ffma(sum, t, fimm(-4.0f), sum);
  kb.ffma(res, sum, fimm(kC1), t);
  kb.ffma(res, p, fimm(kC2), res);
  kb.stg(a_o, res);

  kb.bind(done);
  kb.exit();
  return kb.build();
}

}  // namespace

void Hotspot::setup(Scale scale, u64 seed) {
  dim_ = scale == Scale::kTest ? 32 : 192;
  steps_ = scale == Scale::kTest ? 2 : 10;
  Rng rng(seed);

  const u32 n = dim_ * dim_;
  temp_.resize(n);
  power_.resize(n);
  for (u32 i = 0; i < n; ++i) {
    temp_[i] = rng.next_float(320.0f, 340.0f);
    power_[i] = rng.next_float(0.0f, 1.0f);
  }

  // CPU reference mirrors the kernel arithmetic exactly.
  std::vector<float> cur = temp_, next(n);
  for (u32 s = 0; s < steps_; ++s) {
    for (u32 y = 0; y < dim_; ++y) {
      for (u32 x = 0; x < dim_; ++x) {
        const u32 xm = x == 0 ? 0 : x - 1;
        const u32 xp = x == dim_ - 1 ? dim_ - 1 : x + 1;
        const u32 ym = y == 0 ? 0 : y - 1;
        const u32 yp = y == dim_ - 1 ? dim_ - 1 : y + 1;
        const float t = cur[y * dim_ + x];
        float sum = cur[ym * dim_ + x] + cur[yp * dim_ + x];
        sum += cur[y * dim_ + xp];
        sum += cur[y * dim_ + xm];
        sum = std::fma(t, -4.0f, sum);
        float res = std::fma(sum, kC1, t);
        res = std::fma(power_[y * dim_ + x], kC2, res);
        next[y * dim_ + x] = res;
      }
    }
    std::swap(cur, next);
  }
  reference_ = cur;
  result_.clear();
}

void Hotspot::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  runtime::Device& dev = session.device();
  const u64 input_bytes = 2ull * dim_ * dim_ * 4;
  dev.host_parse(input_bytes * 6);  // temp/power text files (one float per line)

  const u32 n = dim_ * dim_;
  const u64 bytes = static_cast<u64>(n) * 4;
  core::ReplicaPtr buf_a = session.alloc(bytes);
  core::ReplicaPtr buf_b = session.alloc(bytes);
  core::ReplicaPtr pw = session.alloc(bytes);
  session.h2d(buf_a, temp_.data(), bytes);
  session.h2d(pw, power_.data(), bytes);

  isa::ProgramPtr prog = build_hotspot_kernel();
  const u32 tiles = ceil_div(dim_, 16);
  core::ReplicaPtr in = buf_a, out = buf_b;
  for (u32 s = 0; s < steps_; ++s) {
    session.launch(prog, sim::Dim3{tiles, tiles, 1}, sim::Dim3{16, 16, 1},
                   {in, out, pw, dim_});
    std::swap(in, out);
  }
  session.sync();

  result_.resize(n);
  session.d2h(result_.data(), in, bytes);  // `in` holds the final grid
  session.compare(in, bytes, result_.data());
}

bool Hotspot::verify() const { return approx_equal(result_, reference_); }

}  // namespace higpu::workloads
