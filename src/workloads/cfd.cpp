#include "workloads/cfd.h"

#include <cmath>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

constexpr float kGamma = 0.4f;   // (gamma-1) of the equation of state
constexpr float kDiff = 0.25f;   // neighbour diffusion weight
constexpr float kFluxW = 0.01f;  // pressure-flux weight

/// Step factor: sf[i] = 0.5 / (|m/d| + sqrt(|p|/d + 0.1) + 1).
isa::ProgramPtr build_step_factor() {
  using namespace isa;
  KernelBuilder kb("cfd_step_factor");

  Reg den = kb.reg(), mom = kb.reg(), ene = kb.reg(), sf = kb.reg(),
      n = kb.reg();
  kb.ldp(den, 0);
  kb.ldp(mom, 1);
  kb.ldp(ene, 2);
  kb.ldp(sf, 3);
  kb.ldp(n, 4);

  Reg tid = kb.global_tid_x();
  Label done = kb.label();
  util::exit_if_ge(kb, tid, n, done);

  Reg a_d = util::elem_addr(kb, den, tid);
  Reg a_m = util::elem_addr(kb, mom, tid);
  Reg a_e = util::elem_addr(kb, ene, tid);
  Reg d = kb.reg(), m = kb.reg(), e = kb.reg();
  kb.ldg(d, a_d);
  kb.ldg(m, a_m);
  kb.ldg(e, a_e);

  // p = gamma * (e - 0.5*m*m/d)
  Reg m2 = kb.reg(), p = kb.reg(), t = kb.reg();
  kb.fmul(m2, m, m);
  kb.fdiv(t, m2, d);
  kb.ffma(p, t, fimm(-0.5f), e);
  kb.fmul(p, p, fimm(kGamma));

  // speed = |m/d| + sqrt(|p|/d + 0.1)
  Reg u = kb.reg(), c = kb.reg(), speed = kb.reg();
  kb.fdiv(u, m, d);
  kb.fabs_(u, u);
  kb.fabs_(t, p);
  kb.fdiv(t, t, d);
  kb.fadd(t, t, fimm(0.1f));
  kb.fsqrt(c, t);
  kb.fadd(speed, u, c);

  Reg res = kb.reg();
  kb.fadd(t, speed, fimm(1.0f));
  kb.frcp(res, t);
  kb.fmul(res, res, fimm(0.5f));
  Reg a_s = util::elem_addr(kb, sf, tid);
  kb.stg(a_s, res);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

/// Heavy flux kernel: accumulate neighbour fluxes for density, momentum,
/// energy (3 divisions per neighbour + EOS evaluations).
isa::ProgramPtr build_compute_flux(u32 neighbors) {
  using namespace isa;
  KernelBuilder kb("cfd_compute_flux");

  Reg den = kb.reg(), mom = kb.reg(), ene = kb.reg(), nbr = kb.reg(),
      fd = kb.reg(), fm = kb.reg(), fe = kb.reg(), n = kb.reg();
  kb.ldp(den, 0);
  kb.ldp(mom, 1);
  kb.ldp(ene, 2);
  kb.ldp(nbr, 3);
  kb.ldp(fd, 4);
  kb.ldp(fm, 5);
  kb.ldp(fe, 6);
  kb.ldp(n, 7);

  Reg tid = kb.global_tid_x();
  Label done = kb.label();
  util::exit_if_ge(kb, tid, n, done);

  Reg a_d = util::elem_addr(kb, den, tid);
  Reg a_m = util::elem_addr(kb, mom, tid);
  Reg a_e = util::elem_addr(kb, ene, tid);
  Reg d = kb.reg(), m = kb.reg(), e = kb.reg();
  kb.ldg(d, a_d);
  kb.ldg(m, a_m);
  kb.ldg(e, a_e);

  // Own pressure and velocity.
  Reg m2 = kb.reg(), p = kb.reg(), t = kb.reg(), u = kb.reg();
  kb.fmul(m2, m, m);
  kb.fdiv(t, m2, d);
  kb.ffma(p, t, fimm(-0.5f), e);
  kb.fmul(p, p, fimm(kGamma));
  kb.fdiv(u, m, d);
  // Own energy flux term: (e + p) * u
  Reg ef = kb.reg();
  kb.fadd(ef, e, p);
  kb.fmul(ef, ef, u);

  Reg acc_d = kb.reg(), acc_m = kb.reg(), acc_e = kb.reg();
  kb.movf(acc_d, 0.0f);
  kb.movf(acc_m, 0.0f);
  kb.movf(acc_e, 0.0f);

  // Neighbour base: &neighbors[tid*neighbors]
  Reg nb_base = kb.reg(), lin = kb.reg();
  kb.imul(lin, tid, imm(static_cast<i32>(neighbors)));
  kb.imad(nb_base, lin, imm(4), nbr);

  Reg id = kb.reg(), dn = kb.reg(), mn = kb.reg(), en = kb.reg(),
      pn = kb.reg(), un = kb.reg(), efn = kb.reg(), diff = kb.reg(),
      a_nb = kb.reg();
  for (u32 k = 0; k < neighbors; ++k) {
    kb.ldg(id, nb_base, static_cast<i32>(k * 4));
    kb.imad(a_nb, id, imm(4), den);
    kb.ldg(dn, a_nb);
    kb.imad(a_nb, id, imm(4), mom);
    kb.ldg(mn, a_nb);
    kb.imad(a_nb, id, imm(4), ene);
    kb.ldg(en, a_nb);
    // pn = gamma * (en - 0.5*mn*mn/dn); un = mn/dn
    kb.fmul(t, mn, mn);
    kb.fdiv(t, t, dn);
    kb.ffma(pn, t, fimm(-0.5f), en);
    kb.fmul(pn, pn, fimm(kGamma));
    kb.fdiv(un, mn, dn);
    // acc_d += diff*(dn - d) + fluxw*(un - u)
    kb.fsub(diff, dn, d);
    kb.ffma(acc_d, diff, fimm(kDiff), acc_d);
    kb.fsub(diff, un, u);
    kb.ffma(acc_d, diff, fimm(kFluxW), acc_d);
    // acc_m += diff*(mn - m) + fluxw*(pn - p)
    kb.fsub(diff, mn, m);
    kb.ffma(acc_m, diff, fimm(kDiff), acc_m);
    kb.fsub(diff, pn, p);
    kb.ffma(acc_m, diff, fimm(kFluxW), acc_m);
    // acc_e += diff*(en - e) + fluxw*((en+pn)*un - (e+p)*u)
    kb.fsub(diff, en, e);
    kb.ffma(acc_e, diff, fimm(kDiff), acc_e);
    kb.fadd(efn, en, pn);
    kb.fmul(efn, efn, un);
    kb.fsub(diff, efn, ef);
    kb.ffma(acc_e, diff, fimm(kFluxW), acc_e);
  }

  Reg a_o = util::elem_addr(kb, fd, tid);
  kb.stg(a_o, acc_d);
  a_o = util::elem_addr(kb, fm, tid);
  kb.stg(a_o, acc_m);
  a_o = util::elem_addr(kb, fe, tid);
  kb.stg(a_o, acc_e);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

/// Time step: x[i] += sf[i] * flux_x[i] for the three variables.
isa::ProgramPtr build_time_step() {
  using namespace isa;
  KernelBuilder kb("cfd_time_step");

  Reg den = kb.reg(), mom = kb.reg(), ene = kb.reg(), sf = kb.reg(),
      fd = kb.reg(), fm = kb.reg(), fe = kb.reg(), n = kb.reg();
  kb.ldp(den, 0);
  kb.ldp(mom, 1);
  kb.ldp(ene, 2);
  kb.ldp(sf, 3);
  kb.ldp(fd, 4);
  kb.ldp(fm, 5);
  kb.ldp(fe, 6);
  kb.ldp(n, 7);

  Reg tid = kb.global_tid_x();
  Label done = kb.label();
  util::exit_if_ge(kb, tid, n, done);

  Reg a_s = util::elem_addr(kb, sf, tid);
  Reg s = kb.reg();
  kb.ldg(s, a_s);

  auto apply = [&](Reg arr, Reg flux) {
    Reg a_v = util::elem_addr(kb, arr, tid);
    Reg a_f = util::elem_addr(kb, flux, tid);
    Reg v = kb.reg(), f = kb.reg(), step = kb.reg();
    kb.ldg(v, a_v);
    kb.ldg(f, a_f);
    kb.fmul(step, s, f);
    kb.fadd(v, v, step);
    kb.stg(a_v, v);
  };
  apply(den, fd);
  apply(mom, fm);
  apply(ene, fe);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

}  // namespace

void Cfd::setup(Scale scale, u64 seed) {
  n_ = scale == Scale::kTest ? 1024 : 8192;
  iters_ = scale == Scale::kTest ? 2 : 80;
  Rng rng(seed);

  neighbors_.resize(static_cast<size_t>(n_) * kNeighbors);
  for (u32 i = 0; i < n_; ++i) {
    // Ring neighbours + random far neighbours (unstructured-mesh flavour).
    neighbors_[i * kNeighbors + 0] = static_cast<i32>((i + 1) % n_);
    neighbors_[i * kNeighbors + 1] = static_cast<i32>((i + n_ - 1) % n_);
    neighbors_[i * kNeighbors + 2] = static_cast<i32>(rng.next_below(n_));
    neighbors_[i * kNeighbors + 3] = static_cast<i32>(rng.next_below(n_));
  }
  density_.resize(n_);
  momentum_.resize(n_);
  energy_.resize(n_);
  for (u32 i = 0; i < n_; ++i) {
    density_[i] = rng.next_float(1.0f, 2.0f);
    momentum_[i] = rng.next_float(-0.1f, 0.1f);
    energy_[i] = rng.next_float(2.0f, 3.0f);
  }

  // CPU reference mirroring the three kernels per iteration.
  std::vector<float> d = density_, m = momentum_, e = energy_;
  std::vector<float> sf(n_), fd(n_), fm(n_), fe(n_);
  auto pressure = [](float dd, float mm, float ee) {
    float p = std::fma(mm * mm / dd, -0.5f, ee);
    return p * kGamma;
  };
  for (u32 it = 0; it < iters_; ++it) {
    for (u32 i = 0; i < n_; ++i) {
      const float p = pressure(d[i], m[i], e[i]);
      const float u = std::fabs(m[i] / d[i]);
      const float c = std::sqrt(std::fabs(p) / d[i] + 0.1f);
      sf[i] = 0.5f * (1.0f / (u + c + 1.0f));
    }
    for (u32 i = 0; i < n_; ++i) {
      const float p = pressure(d[i], m[i], e[i]);
      const float u = m[i] / d[i];
      const float ef = (e[i] + p) * u;
      float ad = 0.0f, am = 0.0f, ae = 0.0f;
      for (u32 k = 0; k < kNeighbors; ++k) {
        const u32 id = static_cast<u32>(neighbors_[i * kNeighbors + k]);
        const float dn = d[id], mn = m[id], en = e[id];
        const float pn = pressure(dn, mn, en);
        const float un = mn / dn;
        ad = std::fma(dn - d[i], kDiff, ad);
        ad = std::fma(un - u, kFluxW, ad);
        am = std::fma(mn - m[i], kDiff, am);
        am = std::fma(pn - p, kFluxW, am);
        ae = std::fma(en - e[i], kDiff, ae);
        ae = std::fma((en + pn) * un - ef, kFluxW, ae);
      }
      fd[i] = ad;
      fm[i] = am;
      fe[i] = ae;
    }
    for (u32 i = 0; i < n_; ++i) {
      d[i] += sf[i] * fd[i];
      m[i] += sf[i] * fm[i];
      e[i] += sf[i] * fe[i];
    }
  }
  ref_density_ = d;
  got_density_.clear();
}

void Cfd::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  const u64 input_bytes = 3ull * n_ * 4 + static_cast<u64>(n_) * kNeighbors * 4;
  session.device().host_parse(input_bytes);  // Rodinia parses the mesh file

  const u64 bytes = static_cast<u64>(n_) * 4;
  const u64 nb_bytes = static_cast<u64>(n_) * kNeighbors * 4;
  core::ReplicaPtr d_den = session.alloc(bytes);
  core::ReplicaPtr d_mom = session.alloc(bytes);
  core::ReplicaPtr d_ene = session.alloc(bytes);
  core::ReplicaPtr d_nbr = session.alloc(nb_bytes);
  core::ReplicaPtr d_sf = session.alloc(bytes);
  core::ReplicaPtr d_fd = session.alloc(bytes);
  core::ReplicaPtr d_fm = session.alloc(bytes);
  core::ReplicaPtr d_fe = session.alloc(bytes);
  session.h2d(d_den, density_.data(), bytes);
  session.h2d(d_mom, momentum_.data(), bytes);
  session.h2d(d_ene, energy_.data(), bytes);
  session.h2d(d_nbr, neighbors_.data(), nb_bytes);

  isa::ProgramPtr k_sf = build_step_factor();
  isa::ProgramPtr k_flux = build_compute_flux(kNeighbors);
  isa::ProgramPtr k_step = build_time_step();
  const u32 blocks = ceil_div(n_, 128);
  for (u32 it = 0; it < iters_; ++it) {
    session.launch(k_sf, sim::Dim3{blocks, 1, 1}, sim::Dim3{128, 1, 1},
                   {d_den, d_mom, d_ene, d_sf, n_});
    session.launch(k_flux, sim::Dim3{blocks, 1, 1}, sim::Dim3{128, 1, 1},
                   {d_den, d_mom, d_ene, d_nbr, d_fd, d_fm, d_fe, n_});
    session.launch(k_step, sim::Dim3{blocks, 1, 1}, sim::Dim3{128, 1, 1},
                   {d_den, d_mom, d_ene, d_sf, d_fd, d_fm, d_fe, n_});
  }
  session.sync();

  got_density_.resize(n_);
  session.d2h(got_density_.data(), d_den, bytes);
  session.compare(d_den, bytes, got_density_.data());
  // Fetch the energy output too: the comparison needs a host buffer to
  // repair into, or a majority-vote session would claim a safe outcome
  // while the corrected value exists nowhere.
  got_energy_.resize(n_);
  session.d2h(got_energy_.data(), d_ene, bytes);
  session.compare(d_ene, bytes, got_energy_.data());
}

bool Cfd::verify() const {
  return approx_equal(got_density_, ref_density_, 5e-3f);
}

}  // namespace higpu::workloads
