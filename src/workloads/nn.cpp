#include "workloads/nn.h"

#include <cmath>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

/// dist[i] = sqrt((lat[i]-qlat)^2 + (lng[i]-qlng)^2)
isa::ProgramPtr build_nn_kernel() {
  using namespace isa;
  KernelBuilder kb("nn_distance");

  Reg lat = kb.reg(), lng = kb.reg(), dist = kb.reg(), n = kb.reg(),
      qlat = kb.reg(), qlng = kb.reg();
  kb.ldp(lat, 0);
  kb.ldp(lng, 1);
  kb.ldp(dist, 2);
  kb.ldp(n, 3);
  kb.ldp(qlat, 4);
  kb.ldp(qlng, 5);

  Reg tid = kb.global_tid_x();
  Label done = kb.label();
  util::exit_if_ge(kb, tid, n, done);

  Reg a_lat = util::elem_addr(kb, lat, tid);
  Reg a_lng = util::elem_addr(kb, lng, tid);
  Reg v_lat = kb.reg(), v_lng = kb.reg();
  kb.ldg(v_lat, a_lat);
  kb.ldg(v_lng, a_lng);
  Reg dx = kb.reg(), dy = kb.reg(), d2 = kb.reg(), d = kb.reg();
  kb.fsub(dx, v_lat, qlat);
  kb.fsub(dy, v_lng, qlng);
  kb.fmul(d2, dx, dx);
  kb.ffma(d2, dy, dy, d2);
  kb.fsqrt(d, d2);
  Reg a_d = util::elem_addr(kb, dist, tid);
  kb.stg(a_d, d);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

}  // namespace

void Nn::setup(Scale scale, u64 seed) {
  n_ = scale == Scale::kTest ? 2048 : 65536;
  Rng rng(seed);
  query_lat_ = rng.next_float(0.0f, 90.0f);
  query_lng_ = rng.next_float(0.0f, 180.0f);
  lat_.resize(n_);
  lng_.resize(n_);
  reference_.resize(n_);
  for (u32 i = 0; i < n_; ++i) {
    lat_[i] = rng.next_float(0.0f, 90.0f);
    lng_[i] = rng.next_float(0.0f, 180.0f);
    const float dx = lat_[i] - query_lat_;
    const float dy = lng_[i] - query_lng_;
    reference_[i] = std::sqrt(std::fma(dy, dy, dx * dx));
  }
  result_.clear();
}

void Nn::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  const u64 input_bytes = 2ull * n_ * 4;
  session.device().host_parse(input_bytes * 8);  // hurricane record text database

  const u64 bytes = static_cast<u64>(n_) * 4;
  core::ReplicaPtr d_lat = session.alloc(bytes);
  core::ReplicaPtr d_lng = session.alloc(bytes);
  core::ReplicaPtr d_dist = session.alloc(bytes);
  session.h2d(d_lat, lat_.data(), bytes);
  session.h2d(d_lng, lng_.data(), bytes);

  session.launch(build_nn_kernel(), sim::Dim3{ceil_div(n_, 256), 1, 1},
                 sim::Dim3{256, 1, 1},
                 {d_lat, d_lng, d_dist, n_, query_lat_, query_lng_});
  session.sync();

  result_.resize(n_);
  session.d2h(result_.data(), d_dist, bytes);
  session.compare(d_dist, bytes, result_.data());
  // Host scans the distances for the top match.
  session.device().host_compute(bytes);
}

bool Nn::verify() const { return approx_equal(result_, reference_); }

}  // namespace higpu::workloads
