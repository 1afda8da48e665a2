#include "workloads/srad.h"

#include <cmath>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

constexpr float kQ0 = 0.05f;      // diffusion threshold (fixed, as in ROI stats)
constexpr float kLambda = 0.25f;  // update rate

/// Kernel 1: directional differences + diffusion coefficient.
/// Outputs dN,dS,dW,dE and coef arrays.
isa::ProgramPtr build_srad1() {
  using namespace isa;
  KernelBuilder kb("srad1");

  Reg img = kb.reg(), dn = kb.reg(), ds = kb.reg(), dw = kb.reg(),
      de = kb.reg(), coef = kb.reg(), dim = kb.reg();
  kb.ldp(img, 0);
  kb.ldp(dn, 1);
  kb.ldp(ds, 2);
  kb.ldp(dw, 3);
  kb.ldp(de, 4);
  kb.ldp(coef, 5);
  kb.ldp(dim, 6);

  Reg gx = kb.global_tid_x();
  Reg gy = kb.global_tid_y();
  Label done = kb.label();
  util::exit_if_ge(kb, gx, dim, done);
  util::exit_if_ge(kb, gy, dim, done);

  Reg dm1 = kb.reg(), t = kb.reg();
  kb.isub(dm1, dim, imm(1));
  Reg xm = kb.reg(), xp = kb.reg(), ym = kb.reg(), yp = kb.reg();
  kb.isub(t, gx, imm(1));
  kb.imax(xm, t, imm(0));
  kb.iadd(t, gx, imm(1));
  kb.imin(xp, t, dm1);
  kb.isub(t, gy, imm(1));
  kb.imax(ym, t, imm(0));
  kb.iadd(t, gy, imm(1));
  kb.imin(yp, t, dm1);

  auto load2d = [&](Reg y, Reg x, Reg base) {
    Reg lin = kb.reg(), a = kb.reg(), v = kb.reg();
    kb.imad(lin, y, dim, x);
    kb.imad(a, lin, imm(4), base);
    kb.ldg(v, a);
    return v;
  };
  Reg c = load2d(gy, gx, img);
  Reg vn = load2d(ym, gx, img);
  Reg vs = load2d(yp, gx, img);
  Reg vw = load2d(gy, xm, img);
  Reg ve = load2d(gy, xp, img);

  Reg d_n = kb.reg(), d_s = kb.reg(), d_w = kb.reg(), d_e = kb.reg();
  kb.fsub(d_n, vn, c);
  kb.fsub(d_s, vs, c);
  kb.fsub(d_w, vw, c);
  kb.fsub(d_e, ve, c);

  // g2 = (dN^2+dS^2+dW^2+dE^2) / c^2 ; l = (dN+dS+dW+dE) / c
  Reg g2 = kb.reg(), l = kb.reg(), c2 = kb.reg();
  kb.fmul(g2, d_n, d_n);
  kb.ffma(g2, d_s, d_s, g2);
  kb.ffma(g2, d_w, d_w, g2);
  kb.ffma(g2, d_e, d_e, g2);
  kb.fmul(c2, c, c);
  kb.fdiv(g2, g2, c2);
  kb.fadd(l, d_n, d_s);
  kb.fadd(l, l, d_w);
  kb.fadd(l, l, d_e);
  kb.fdiv(l, l, c);

  // num = 0.5*g2 - (1/16)*l^2 ; den = (1 + 0.25*l)^2 ; q = num/den
  Reg num = kb.reg(), den = kb.reg(), q = kb.reg(), l2 = kb.reg();
  kb.fmul(l2, l, l);
  kb.fmul(num, g2, fimm(0.5f));
  kb.ffma(num, l2, fimm(-1.0f / 16.0f), num);
  kb.ffma(den, l, fimm(0.25f), fimm(1.0f));
  kb.fmul(den, den, den);
  kb.fdiv(q, num, den);

  // coef = 1 / (1 + (q - q0) / (q0*(1+q0))), clamped to [0, 1].
  Reg cf = kb.reg();
  kb.fsub(cf, q, fimm(kQ0));
  kb.fmul(cf, cf, fimm(1.0f / (kQ0 * (1.0f + kQ0))));
  kb.fadd(cf, cf, fimm(1.0f));
  kb.frcp(cf, cf);
  kb.fmax(cf, cf, fimm(0.0f));
  kb.fmin(cf, cf, fimm(1.0f));

  auto store2d = [&](Reg base, Reg v) {
    Reg lin = kb.reg(), a = kb.reg();
    kb.imad(lin, gy, dim, gx);
    kb.imad(a, lin, imm(4), base);
    kb.stg(a, v);
  };
  store2d(dn, d_n);
  store2d(ds, d_s);
  store2d(dw, d_w);
  store2d(de, d_e);
  store2d(coef, cf);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

/// Kernel 2: img += lambda/4 * (cS*dS + cE*dE + c*dN + c*dW), where cS/cE
/// are the south/east neighbours' coefficients (clamped).
isa::ProgramPtr build_srad2() {
  using namespace isa;
  KernelBuilder kb("srad2");

  Reg img = kb.reg(), dn = kb.reg(), ds = kb.reg(), dw = kb.reg(),
      de = kb.reg(), coef = kb.reg(), dim = kb.reg();
  kb.ldp(img, 0);
  kb.ldp(dn, 1);
  kb.ldp(ds, 2);
  kb.ldp(dw, 3);
  kb.ldp(de, 4);
  kb.ldp(coef, 5);
  kb.ldp(dim, 6);

  Reg gx = kb.global_tid_x();
  Reg gy = kb.global_tid_y();
  Label done = kb.label();
  util::exit_if_ge(kb, gx, dim, done);
  util::exit_if_ge(kb, gy, dim, done);

  Reg dm1 = kb.reg(), t = kb.reg();
  kb.isub(dm1, dim, imm(1));
  Reg xp = kb.reg(), yp = kb.reg();
  kb.iadd(t, gx, imm(1));
  kb.imin(xp, t, dm1);
  kb.iadd(t, gy, imm(1));
  kb.imin(yp, t, dm1);

  auto load2d = [&](Reg y, Reg x, Reg base) {
    Reg lin = kb.reg(), a = kb.reg(), v = kb.reg();
    kb.imad(lin, y, dim, x);
    kb.imad(a, lin, imm(4), base);
    kb.ldg(v, a);
    return v;
  };
  Reg c_own = load2d(gy, gx, coef);
  Reg c_s = load2d(yp, gx, coef);
  Reg c_e = load2d(gy, xp, coef);
  Reg v_n = load2d(gy, gx, dn);
  Reg v_s = load2d(gy, gx, ds);
  Reg v_w = load2d(gy, gx, dw);
  Reg v_e = load2d(gy, gx, de);

  Reg div = kb.reg();
  kb.fmul(div, c_s, v_s);
  kb.ffma(div, c_e, v_e, div);
  kb.ffma(div, c_own, v_n, div);
  kb.ffma(div, c_own, v_w, div);

  Reg lin = kb.reg(), a = kb.reg(), cur = kb.reg();
  kb.imad(lin, gy, dim, gx);
  kb.imad(a, lin, imm(4), img);
  kb.ldg(cur, a);
  kb.ffma(cur, div, fimm(kLambda * 0.25f), cur);
  kb.stg(a, cur);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

}  // namespace

void Srad::setup(Scale scale, u64 seed) {
  dim_ = scale == Scale::kTest ? 32 : 128;
  iters_ = scale == Scale::kTest ? 2 : 4;
  Rng rng(seed);

  image_.resize(static_cast<size_t>(dim_) * dim_);
  for (float& v : image_) v = rng.next_float(0.5f, 2.0f);

  // CPU reference mirroring the kernel arithmetic exactly.
  reference_ = image_;
  const u32 n = dim_ * dim_;
  std::vector<float> d_n(n), d_s(n), d_w(n), d_e(n), cf(n);
  auto clampi = [&](i32 v) {
    return static_cast<u32>(v < 0 ? 0 : (v >= static_cast<i32>(dim_)
                                             ? static_cast<i32>(dim_) - 1
                                             : v));
  };
  for (u32 it = 0; it < iters_; ++it) {
    for (u32 y = 0; y < dim_; ++y) {
      for (u32 x = 0; x < dim_; ++x) {
        const u32 i = y * dim_ + x;
        const float c = reference_[i];
        const float vn = reference_[clampi(static_cast<i32>(y) - 1) * dim_ + x];
        const float vs = reference_[clampi(static_cast<i32>(y) + 1) * dim_ + x];
        const float vw = reference_[y * dim_ + clampi(static_cast<i32>(x) - 1)];
        const float ve = reference_[y * dim_ + clampi(static_cast<i32>(x) + 1)];
        d_n[i] = vn - c;
        d_s[i] = vs - c;
        d_w[i] = vw - c;
        d_e[i] = ve - c;
        float g2 = d_n[i] * d_n[i];
        g2 = std::fma(d_s[i], d_s[i], g2);
        g2 = std::fma(d_w[i], d_w[i], g2);
        g2 = std::fma(d_e[i], d_e[i], g2);
        g2 /= c * c;
        float l = d_n[i] + d_s[i];
        l += d_w[i];
        l += d_e[i];
        l /= c;
        const float l2 = l * l;
        float num = g2 * 0.5f;
        num = std::fma(l2, -1.0f / 16.0f, num);
        float den = std::fma(l, 0.25f, 1.0f);
        den *= den;
        const float q = num / den;
        float v = std::fma(q - kQ0, 1.0f / (kQ0 * (1.0f + kQ0)), 1.0f);
        v = 1.0f / v;
        v = std::fmax(v, 0.0f);
        v = std::fmin(v, 1.0f);
        cf[i] = v;
      }
    }
    for (u32 y = 0; y < dim_; ++y) {
      for (u32 x = 0; x < dim_; ++x) {
        const u32 i = y * dim_ + x;
        const float c_s = cf[clampi(static_cast<i32>(y) + 1) * dim_ + x];
        const float c_e = cf[y * dim_ + clampi(static_cast<i32>(x) + 1)];
        float div = c_s * d_s[i];
        div = std::fma(c_e, d_e[i], div);
        div = std::fma(cf[i], d_n[i], div);
        div = std::fma(cf[i], d_w[i], div);
        reference_[i] = std::fma(div, kLambda * 0.25f, reference_[i]);
      }
    }
  }
  result_.clear();
}

void Srad::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  const u64 input_bytes = static_cast<u64>(dim_) * dim_ * 4;
  session.device().host_parse(input_bytes * 6);  // image extraction/compression

  const u32 n = dim_ * dim_;
  const u64 bytes = static_cast<u64>(n) * 4;
  core::ReplicaPtr d_img = session.alloc(bytes);
  core::ReplicaPtr d_dn = session.alloc(bytes);
  core::ReplicaPtr d_ds = session.alloc(bytes);
  core::ReplicaPtr d_dw = session.alloc(bytes);
  core::ReplicaPtr d_de = session.alloc(bytes);
  core::ReplicaPtr d_cf = session.alloc(bytes);
  session.h2d(d_img, image_.data(), bytes);

  isa::ProgramPtr k1 = build_srad1();
  isa::ProgramPtr k2 = build_srad2();
  const u32 tiles = ceil_div(dim_, 16);
  for (u32 it = 0; it < iters_; ++it) {
    session.launch(k1, sim::Dim3{tiles, tiles, 1}, sim::Dim3{16, 16, 1},
                   {d_img, d_dn, d_ds, d_dw, d_de, d_cf, dim_});
    session.launch(k2, sim::Dim3{tiles, tiles, 1}, sim::Dim3{16, 16, 1},
                   {d_img, d_dn, d_ds, d_dw, d_de, d_cf, dim_});
  }
  session.sync();

  result_.resize(n);
  session.d2h(result_.data(), d_img, bytes);
  session.compare(d_img, bytes, result_.data());
}

bool Srad::verify() const { return approx_equal(result_, reference_, 5e-3f); }

}  // namespace higpu::workloads
