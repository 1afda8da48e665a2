#include "workloads/hotspot3d.h"

#include <cmath>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

constexpr float kCxy = 0.08f;  // lateral conduction
constexpr float kCz = 0.04f;   // vertical conduction
constexpr float kCp = 0.03f;   // power injection

/// One thread per cell (1D launch over dim*dim*layers):
/// out = t + cxy*(tN+tS+tE+tW-4t) + cz*(tU+tD-2t) + cp*p, borders clamped.
isa::ProgramPtr build_hotspot3d_kernel() {
  using namespace isa;
  KernelBuilder kb("hotspot3d_step");

  Reg in = kb.reg(), out = kb.reg(), pw = kb.reg(), dim = kb.reg(),
      layers = kb.reg();
  kb.ldp(in, 0);
  kb.ldp(out, 1);
  kb.ldp(pw, 2);
  kb.ldp(dim, 3);
  kb.ldp(layers, 4);

  Reg gid = kb.global_tid_x();
  Reg plane = kb.reg(), total = kb.reg();
  kb.imul(plane, dim, dim);
  kb.imul(total, plane, layers);
  Label done = kb.label();
  util::exit_if_ge(kb, gid, total, done);

  // Decompose gid -> (x, y, z). No integer div opcode, so use the identity
  // gid = z*plane + y*dim + x computed with iterative subtraction... instead
  // the launch uses dim that is a power of two, so shifts/masks suffice.
  // dim and plane are powers of two by construction (setup() enforces it).
  Reg x = kb.reg(), y = kb.reg(), z = kb.reg(), log_dim = kb.reg(),
      rem = kb.reg(), log_plane = kb.reg();
  kb.ldp(log_dim, 5);
  kb.ldp(log_plane, 6);
  kb.shr(z, gid, log_plane);
  Reg mask_plane = kb.reg();
  kb.isub(mask_plane, plane, imm(1));
  kb.and_(rem, gid, mask_plane);
  kb.shr(y, rem, log_dim);
  Reg mask_dim = kb.reg();
  kb.isub(mask_dim, dim, imm(1));
  kb.and_(x, rem, mask_dim);

  // Clamped neighbour coordinates.
  Reg dm1 = kb.reg(), lm1 = kb.reg(), t0 = kb.reg();
  kb.isub(dm1, dim, imm(1));
  kb.isub(lm1, layers, imm(1));
  Reg xm = kb.reg(), xp = kb.reg(), ym = kb.reg(), yp = kb.reg(),
      zm = kb.reg(), zp = kb.reg();
  kb.isub(t0, x, imm(1));
  kb.imax(xm, t0, imm(0));
  kb.iadd(t0, x, imm(1));
  kb.imin(xp, t0, dm1);
  kb.isub(t0, y, imm(1));
  kb.imax(ym, t0, imm(0));
  kb.iadd(t0, y, imm(1));
  kb.imin(yp, t0, dm1);
  kb.isub(t0, z, imm(1));
  kb.imax(zm, t0, imm(0));
  kb.iadd(t0, z, imm(1));
  kb.imin(zp, t0, lm1);

  auto addr3d = [&](Reg zz, Reg yy, Reg xx, Reg base) {
    Reg lin = kb.reg(), a = kb.reg();
    kb.imad(lin, zz, plane, xx);
    kb.imad(lin, yy, dim, lin);
    kb.imad(a, lin, imm(4), base);
    return a;
  };
  Reg a_c = addr3d(z, y, x, in);
  Reg a_n = addr3d(z, ym, x, in);
  Reg a_s = addr3d(z, yp, x, in);
  Reg a_e = addr3d(z, y, xp, in);
  Reg a_w = addr3d(z, y, xm, in);
  Reg a_u = addr3d(zp, y, x, in);
  Reg a_d = addr3d(zm, y, x, in);

  Reg t = kb.reg(), tn = kb.reg(), ts = kb.reg(), te = kb.reg(),
      tw = kb.reg(), tu = kb.reg(), td = kb.reg(), p = kb.reg();
  kb.ldg(t, a_c);
  kb.ldg(tn, a_n);
  kb.ldg(ts, a_s);
  kb.ldg(te, a_e);
  kb.ldg(tw, a_w);
  kb.ldg(tu, a_u);
  kb.ldg(td, a_d);
  Reg a_p = addr3d(z, y, x, pw);
  kb.ldg(p, a_p);

  Reg lat = kb.reg(), vert = kb.reg(), res = kb.reg();
  kb.fadd(lat, tn, ts);
  kb.fadd(lat, lat, te);
  kb.fadd(lat, lat, tw);
  kb.ffma(lat, t, fimm(-4.0f), lat);
  kb.fadd(vert, tu, td);
  kb.ffma(vert, t, fimm(-2.0f), vert);
  kb.ffma(res, lat, fimm(kCxy), t);
  kb.ffma(res, vert, fimm(kCz), res);
  kb.ffma(res, p, fimm(kCp), res);
  Reg a_o = addr3d(z, y, x, out);
  kb.stg(a_o, res);

  kb.bind(done);
  kb.exit();
  return kb.build();
}

u32 log2u(u32 v) {
  u32 l = 0;
  while ((1u << l) < v) ++l;
  return l;
}

}  // namespace

void Hotspot3d::setup(Scale scale, u64 seed) {
  dim_ = scale == Scale::kTest ? 16 : 64;  // power of two (kernel relies on it)
  layers_ = scale == Scale::kTest ? 4 : 8;
  steps_ = scale == Scale::kTest ? 2 : 8;
  Rng rng(seed);

  const u32 n = dim_ * dim_ * layers_;
  temp_.resize(n);
  power_.resize(n);
  for (u32 i = 0; i < n; ++i) {
    temp_[i] = rng.next_float(320.0f, 340.0f);
    power_[i] = rng.next_float(0.0f, 1.0f);
  }

  const u32 plane = dim_ * dim_;
  auto clampi = [](i32 v, i32 lo, i32 hi) {
    return v < lo ? lo : (v > hi ? hi : v);
  };
  std::vector<float> cur = temp_, next(n);
  for (u32 s = 0; s < steps_; ++s) {
    for (u32 z = 0; z < layers_; ++z) {
      for (u32 y = 0; y < dim_; ++y) {
        for (u32 x = 0; x < dim_; ++x) {
          const u32 i = z * plane + y * dim_ + x;
          const float t = cur[i];
          auto at = [&](i32 zz, i32 yy, i32 xx) {
            zz = clampi(zz, 0, static_cast<i32>(layers_) - 1);
            yy = clampi(yy, 0, static_cast<i32>(dim_) - 1);
            xx = clampi(xx, 0, static_cast<i32>(dim_) - 1);
            return cur[static_cast<u32>(zz) * plane +
                       static_cast<u32>(yy) * dim_ + static_cast<u32>(xx)];
          };
          float lat = at(z, y - 1, x) + at(z, y + 1, x);
          lat += at(z, y, x + 1);
          lat += at(z, y, x - 1);
          lat = std::fma(t, -4.0f, lat);
          float vert = at(z + 1, y, x) + at(z - 1, y, x);
          vert = std::fma(t, -2.0f, vert);
          float res = std::fma(lat, kCxy, t);
          res = std::fma(vert, kCz, res);
          res = std::fma(power_[i], kCp, res);
          next[i] = res;
        }
      }
    }
    std::swap(cur, next);
  }
  reference_ = cur;
  result_.clear();
}

void Hotspot3d::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  const u64 input_bytes = 2ull * dim_ * dim_ * layers_ * 4;
  session.device().host_parse(input_bytes * 6);  // text input files

  const u32 n = dim_ * dim_ * layers_;
  const u64 bytes = static_cast<u64>(n) * 4;
  core::ReplicaPtr buf_a = session.alloc(bytes);
  core::ReplicaPtr buf_b = session.alloc(bytes);
  core::ReplicaPtr pw = session.alloc(bytes);
  session.h2d(buf_a, temp_.data(), bytes);
  session.h2d(pw, power_.data(), bytes);

  isa::ProgramPtr prog = build_hotspot3d_kernel();
  const u32 blocks = ceil_div(n, 256);
  core::ReplicaPtr in = buf_a, out = buf_b;
  for (u32 s = 0; s < steps_; ++s) {
    session.launch(prog, sim::Dim3{blocks, 1, 1}, sim::Dim3{256, 1, 1},
                   {in, out, pw, dim_, layers_, log2u(dim_), log2u(dim_ * dim_)});
    std::swap(in, out);
  }
  session.sync();

  result_.resize(n);
  session.d2h(result_.data(), in, bytes);
  session.compare(in, bytes, result_.data());
}

bool Hotspot3d::verify() const { return approx_equal(result_, reference_); }

}  // namespace higpu::workloads
