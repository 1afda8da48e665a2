#include "workloads/lavamd.h"

#include <cmath>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

constexpr float kAlpha = 0.5f;  // exp kernel steepness

/// Per particle i of box b:
///   pot[i] = sum over neighbour boxes nb, particles j in nb:
///            q_j * exp(-alpha * r2(i, j))
/// One block per box; thread = particle index within the box.
isa::ProgramPtr build_lavamd_kernel(u32 particles, u32 neighbors) {
  using namespace isa;
  KernelBuilder kb("lavamd_forces");

  Reg px = kb.reg(), py = kb.reg(), pz = kb.reg(), q = kb.reg(),
      neigh = kb.reg(), pot = kb.reg();
  kb.ldp(px, 0);
  kb.ldp(py, 1);
  kb.ldp(pz, 2);
  kb.ldp(q, 3);
  kb.ldp(neigh, 4);
  kb.ldp(pot, 5);

  Reg tid = kb.reg(), box = kb.reg();
  kb.s2r(tid, SReg::kTidX);
  kb.s2r(box, SReg::kCtaIdX);

  // My particle's global index and position.
  Reg me = kb.reg();
  kb.imad(me, box, imm(static_cast<i32>(particles)), tid);
  Reg a = kb.reg(), mx = kb.reg(), my = kb.reg(), mz = kb.reg();
  kb.imad(a, me, imm(4), px);
  kb.ldg(mx, a);
  kb.imad(a, me, imm(4), py);
  kb.ldg(my, a);
  kb.imad(a, me, imm(4), pz);
  kb.ldg(mz, a);

  Reg acc = kb.reg();
  kb.movf(acc, 0.0f);

  // Neighbour-box list base: &neigh[box*neighbors].
  Reg nb_base = kb.reg(), lin = kb.reg();
  kb.imul(lin, box, imm(static_cast<i32>(neighbors)));
  kb.imad(nb_base, lin, imm(4), neigh);

  Reg nb = kb.reg(), j = kb.reg(), jend = kb.reg(), ox = kb.reg(),
      oy = kb.reg(), oz = kb.reg(), oq = kb.reg(), dx = kb.reg(),
      dy = kb.reg(), dz = kb.reg(), r2 = kb.reg(), e = kb.reg(),
      t = kb.reg();
  // Both predicates are reused across neighbour iterations: each setp is
  // consumed by the guarded branch right after it, and 2*neighbors fresh
  // allocations would blow the 8-register predicate file.
  PredReg invalid = kb.pred(), done_p = kb.pred();
  for (u32 k = 0; k < neighbors; ++k) {
    Label skip = kb.label();
    kb.ldg(nb, nb_base, static_cast<i32>(k * 4));
    kb.setp(invalid, CmpOp::kLt, DType::kI32, nb, imm(0));
    kb.bra(skip).guard_if(invalid);

    // j iterates the neighbour box's particles.
    kb.imul(j, nb, imm(static_cast<i32>(particles)));
    kb.iadd(jend, j, imm(static_cast<i32>(particles)));
    Label loop = kb.label(), loop_end = kb.label();
    kb.bind(loop);
    kb.setp(done_p, CmpOp::kGe, DType::kI32, j, jend);
    kb.bra(loop_end).guard_if(done_p);

    kb.imad(a, j, imm(4), px);
    kb.ldg(ox, a);
    kb.imad(a, j, imm(4), py);
    kb.ldg(oy, a);
    kb.imad(a, j, imm(4), pz);
    kb.ldg(oz, a);
    kb.imad(a, j, imm(4), q);
    kb.ldg(oq, a);
    kb.fsub(dx, mx, ox);
    kb.fsub(dy, my, oy);
    kb.fsub(dz, mz, oz);
    kb.fmul(r2, dx, dx);
    kb.ffma(r2, dy, dy, r2);
    kb.ffma(r2, dz, dz, r2);
    kb.fmul(t, r2, fimm(-kAlpha));
    kb.fexp(e, t);
    kb.ffma(acc, oq, e, acc);

    kb.iadd(j, j, imm(1));
    kb.bra(loop);
    kb.bind(loop_end);
    kb.bind(skip);
  }

  Reg a_out = util::elem_addr(kb, pot, me);
  kb.stg(a_out, acc);
  kb.exit();
  return kb.build();
}

}  // namespace

void LavaMd::setup(Scale scale, u64 seed) {
  boxes_ = scale == Scale::kTest ? 8 : 27;
  Rng rng(seed);

  const u32 n = boxes_ * kParticles;
  px_.resize(n);
  py_.resize(n);
  pz_.resize(n);
  charge_.resize(n);
  for (u32 i = 0; i < n; ++i) {
    px_[i] = rng.next_float(0.0f, 3.0f);
    py_[i] = rng.next_float(0.0f, 3.0f);
    pz_[i] = rng.next_float(0.0f, 3.0f);
    charge_[i] = rng.next_float(0.1f, 1.0f);
  }
  // Neighbour lists: ring-ish neighbourhood with a couple of -1 fills to
  // exercise the skip path.
  neigh_.assign(static_cast<size_t>(boxes_) * kNeighbors, -1);
  for (u32 b = 0; b < boxes_; ++b) {
    for (u32 k = 0; k + 1 < kNeighbors; ++k)
      neigh_[b * kNeighbors + k] =
          static_cast<i32>((b + k) % boxes_);  // includes self at k=0
    // last slot stays -1
  }

  reference_.assign(n, 0.0f);
  for (u32 b = 0; b < boxes_; ++b) {
    for (u32 t = 0; t < kParticles; ++t) {
      const u32 i = b * kParticles + t;
      float acc = 0.0f;
      for (u32 k = 0; k < kNeighbors; ++k) {
        const i32 nb = neigh_[b * kNeighbors + k];
        if (nb < 0) continue;
        for (u32 p = 0; p < kParticles; ++p) {
          const u32 jj = static_cast<u32>(nb) * kParticles + p;
          const float dx = px_[i] - px_[jj];
          const float dy = py_[i] - py_[jj];
          const float dz = pz_[i] - pz_[jj];
          float r2 = dx * dx;
          r2 = std::fma(dy, dy, r2);
          r2 = std::fma(dz, dz, r2);
          acc = std::fma(charge_[jj], std::exp(r2 * -kAlpha), acc);
        }
      }
      reference_[i] = acc;
    }
  }
  result_.clear();
}

void LavaMd::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  const u64 input_bytes =
      4ull * boxes_ * kParticles * 4 + boxes_ * kNeighbors * 4;
  session.device().host_generate(input_bytes * 60);  // box/neighbour setup loops

  const u32 n = boxes_ * kParticles;
  const u64 bytes = static_cast<u64>(n) * 4;
  const u64 nb_bytes = static_cast<u64>(boxes_) * kNeighbors * 4;
  core::ReplicaPtr d_px = session.alloc(bytes);
  core::ReplicaPtr d_py = session.alloc(bytes);
  core::ReplicaPtr d_pz = session.alloc(bytes);
  core::ReplicaPtr d_q = session.alloc(bytes);
  core::ReplicaPtr d_nb = session.alloc(nb_bytes);
  core::ReplicaPtr d_pot = session.alloc(bytes);
  session.h2d(d_px, px_.data(), bytes);
  session.h2d(d_py, py_.data(), bytes);
  session.h2d(d_pz, pz_.data(), bytes);
  session.h2d(d_q, charge_.data(), bytes);
  session.h2d(d_nb, neigh_.data(), nb_bytes);

  session.launch(build_lavamd_kernel(kParticles, kNeighbors),
                 sim::Dim3{boxes_, 1, 1}, sim::Dim3{kParticles, 1, 1},
                 {d_px, d_py, d_pz, d_q, d_nb, d_pot});
  session.sync();

  result_.resize(n);
  session.d2h(result_.data(), d_pot, bytes);
  session.compare(d_pot, bytes, result_.data());
}

bool LavaMd::verify() const { return approx_equal(result_, reference_, 5e-3f); }

}  // namespace higpu::workloads
