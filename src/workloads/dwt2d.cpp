#include "workloads/dwt2d.h"

#include <cmath>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

constexpr float kInvSqrt2 = 0.70710678f;

/// Haar row pass over the top-left (w x h) region of a `stride`-wide image:
/// out[y][i]      = (in[y][2i] + in[y][2i+1]) * 1/sqrt(2)
/// out[y][i+w/2]  = (in[y][2i] - in[y][2i+1]) * 1/sqrt(2)
/// Params: in, out, w, h, stride. Threads: (w/2) x h.
isa::ProgramPtr build_dwt_rows() {
  using namespace isa;
  KernelBuilder kb("dwt2d_rows");

  Reg in = kb.reg(), out = kb.reg(), w = kb.reg(), h = kb.reg(),
      stride = kb.reg();
  kb.ldp(in, 0);
  kb.ldp(out, 1);
  kb.ldp(w, 2);
  kb.ldp(h, 3);
  kb.ldp(stride, 4);

  Reg gx = kb.global_tid_x();
  Reg gy = kb.global_tid_y();
  Reg half = kb.reg();
  kb.shr(half, w, imm(1));
  Label done = kb.label();
  util::exit_if_ge(kb, gx, half, done);
  util::exit_if_ge(kb, gy, h, done);

  Reg x2 = kb.reg();
  kb.shl(x2, gx, imm(1));
  Reg a_even = util::elem_addr2d(kb, in, gy, stride, x2);
  Reg v_e = kb.reg(), v_o = kb.reg();
  kb.ldg(v_e, a_even);
  kb.ldg(v_o, a_even, 4);

  Reg lo = kb.reg(), hi = kb.reg();
  kb.fadd(lo, v_e, v_o);
  kb.fmul(lo, lo, fimm(kInvSqrt2));
  kb.fsub(hi, v_e, v_o);
  kb.fmul(hi, hi, fimm(kInvSqrt2));

  Reg a_lo = util::elem_addr2d(kb, out, gy, stride, gx);
  Reg xh = kb.reg();
  kb.iadd(xh, gx, half);
  Reg a_hi = util::elem_addr2d(kb, out, gy, stride, xh);
  kb.stg(a_lo, lo);
  kb.stg(a_hi, hi);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

/// Haar column pass (same formula down columns). Threads: w x (h/2).
isa::ProgramPtr build_dwt_cols() {
  using namespace isa;
  KernelBuilder kb("dwt2d_cols");

  Reg in = kb.reg(), out = kb.reg(), w = kb.reg(), h = kb.reg(),
      stride = kb.reg();
  kb.ldp(in, 0);
  kb.ldp(out, 1);
  kb.ldp(w, 2);
  kb.ldp(h, 3);
  kb.ldp(stride, 4);

  Reg gx = kb.global_tid_x();
  Reg gy = kb.global_tid_y();
  Reg half = kb.reg();
  kb.shr(half, h, imm(1));
  Label done = kb.label();
  util::exit_if_ge(kb, gx, w, done);
  util::exit_if_ge(kb, gy, half, done);

  Reg y2 = kb.reg();
  kb.shl(y2, gy, imm(1));
  Reg a_even = util::elem_addr2d(kb, in, y2, stride, gx);
  Reg y2p = kb.reg();
  kb.iadd(y2p, y2, imm(1));
  Reg a_odd = util::elem_addr2d(kb, in, y2p, stride, gx);
  Reg v_e = kb.reg(), v_o = kb.reg();
  kb.ldg(v_e, a_even);
  kb.ldg(v_o, a_odd);

  Reg lo = kb.reg(), hi = kb.reg();
  kb.fadd(lo, v_e, v_o);
  kb.fmul(lo, lo, fimm(kInvSqrt2));
  kb.fsub(hi, v_e, v_o);
  kb.fmul(hi, hi, fimm(kInvSqrt2));

  Reg a_lo = util::elem_addr2d(kb, out, gy, stride, gx);
  Reg yh = kb.reg();
  kb.iadd(yh, gy, half);
  Reg a_hi = util::elem_addr2d(kb, out, yh, stride, gx);
  kb.stg(a_lo, lo);
  kb.stg(a_hi, hi);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

void haar_rows_ref(std::vector<float>& img, std::vector<float>& tmp, u32 w,
                   u32 h, u32 stride) {
  for (u32 y = 0; y < h; ++y) {
    for (u32 x = 0; x < w / 2; ++x) {
      const float e = img[y * stride + 2 * x];
      const float o = img[y * stride + 2 * x + 1];
      tmp[y * stride + x] = (e + o) * kInvSqrt2;
      tmp[y * stride + x + w / 2] = (e - o) * kInvSqrt2;
    }
  }
  for (u32 y = 0; y < h; ++y)
    for (u32 x = 0; x < w; ++x) img[y * stride + x] = tmp[y * stride + x];
}

void haar_cols_ref(std::vector<float>& img, std::vector<float>& tmp, u32 w,
                   u32 h, u32 stride) {
  for (u32 y = 0; y < h / 2; ++y) {
    for (u32 x = 0; x < w; ++x) {
      const float e = img[(2 * y) * stride + x];
      const float o = img[(2 * y + 1) * stride + x];
      tmp[y * stride + x] = (e + o) * kInvSqrt2;
      tmp[(y + h / 2) * stride + x] = (e - o) * kInvSqrt2;
    }
  }
  for (u32 y = 0; y < h; ++y)
    for (u32 x = 0; x < w; ++x) img[y * stride + x] = tmp[y * stride + x];
}

}  // namespace

void Dwt2d::setup(Scale scale, u64 seed) {
  dim_ = scale == Scale::kTest ? 32 : 256;
  levels_ = scale == Scale::kTest ? 2 : 3;
  Rng rng(seed);

  image_.resize(static_cast<size_t>(dim_) * dim_);
  for (float& v : image_) v = rng.next_float(0.0f, 255.0f);

  reference_ = image_;
  std::vector<float> tmp(reference_.size(), 0.0f);
  u32 w = dim_, h = dim_;
  for (u32 level = 0; level < levels_; ++level) {
    haar_rows_ref(reference_, tmp, w, h, dim_);
    haar_cols_ref(reference_, tmp, w, h, dim_);
    w /= 2;
    h /= 2;
  }
  result_.clear();
}

void Dwt2d::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  const u64 input_bytes = static_cast<u64>(dim_) * dim_ * 4;
  session.device().host_parse(input_bytes * 3);  // BMP decode + component setup

  const u64 bytes = static_cast<u64>(dim_) * dim_ * 4;
  core::ReplicaPtr d_img = session.alloc(bytes);
  core::ReplicaPtr d_tmp = session.alloc(bytes);
  session.h2d(d_img, image_.data(), bytes);
  // Seed d_tmp with the image too so the ping-pong keeps the inactive
  // quadrants intact across levels.
  session.h2d(d_tmp, image_.data(), bytes);

  isa::ProgramPtr rows = build_dwt_rows();
  isa::ProgramPtr cols = build_dwt_cols();
  u32 w = dim_, h = dim_;
  core::ReplicaPtr src = d_img, dst = d_tmp;
  for (u32 level = 0; level < levels_; ++level) {
    session.launch(rows,
                   sim::Dim3{ceil_div(w / 2, 16), ceil_div(h, 16), 1},
                   sim::Dim3{16, 16, 1}, {src, dst, w, h, dim_});
    session.launch(cols,
                   sim::Dim3{ceil_div(w, 16), ceil_div(h / 2, 16), 1},
                   sim::Dim3{16, 16, 1}, {dst, src, w, h, dim_});
    w /= 2;
    h /= 2;
  }
  session.sync();

  result_.resize(static_cast<size_t>(dim_) * dim_);
  session.d2h(result_.data(), d_img, bytes);
  session.compare(d_img, bytes, result_.data());
}

bool Dwt2d::verify() const { return approx_equal(result_, reference_); }

}  // namespace higpu::workloads
