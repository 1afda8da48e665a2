#include "workloads/nw.h"

#include <algorithm>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

constexpr u32 kT = 16;            // tile size
constexpr u32 kShDim = kT + 1;    // shared tile with halo row/col

/// One 16-thread block processes one 16x16 tile of the DP matrix:
/// load halo + wavefront sweep in shared memory + store back.
/// Params: matrix, ref, ncols, d (tile diagonal), bi_start, penalty.
isa::ProgramPtr build_nw_tile_kernel() {
  using namespace isa;
  KernelBuilder kb("nw_tile");
  kb.set_shared_bytes(kShDim * kShDim * 4);

  Reg mat = kb.reg(), ref = kb.reg(), ncols = kb.reg(), diag = kb.reg(),
      bi_start = kb.reg(), pen = kb.reg();
  kb.ldp(mat, 0);
  kb.ldp(ref, 1);
  kb.ldp(ncols, 2);
  kb.ldp(diag, 3);
  kb.ldp(bi_start, 4);
  kb.ldp(pen, 5);

  Reg tx = kb.reg(), cta = kb.reg();
  kb.s2r(tx, SReg::kTidX);
  kb.s2r(cta, SReg::kCtaIdX);

  // Tile coordinates: bi = bi_start + cta; bj = diag - bi.
  Reg bi = kb.reg(), bj = kb.reg();
  kb.iadd(bi, bi_start, cta);
  kb.isub(bj, diag, bi);
  // Tile origin in the DP matrix (halo row/col 0 excluded).
  Reg row0 = kb.reg(), col0 = kb.reg();
  kb.imad(row0, bi, imm(static_cast<i32>(kT)), imm(1));
  kb.imad(col0, bj, imm(static_cast<i32>(kT)), imm(1));

  // ---- Load halo ----
  // shared[0][tx+1] = m[row0-1][col0+tx]
  Reg rm1 = kb.reg(), cm1 = kb.reg();
  kb.isub(rm1, row0, imm(1));
  kb.isub(cm1, col0, imm(1));
  Reg col_t = kb.reg();
  kb.iadd(col_t, col0, tx);
  Reg g_top = util::elem_addr2d(kb, mat, rm1, ncols, col_t);
  Reg v = kb.reg();
  kb.ldg(v, g_top);
  Reg sh_a = kb.reg();
  kb.imad(sh_a, tx, imm(4), imm(4));  // (0*17 + tx+1)*4
  kb.sts(sh_a, v);
  // shared[tx+1][0] = m[row0+tx][col0-1]
  Reg row_t = kb.reg();
  kb.iadd(row_t, row0, tx);
  Reg g_left = util::elem_addr2d(kb, mat, row_t, ncols, cm1);
  kb.ldg(v, g_left);
  kb.imad(sh_a, tx, imm(static_cast<i32>(kShDim * 4)),
          imm(static_cast<i32>(kShDim * 4)));  // ((tx+1)*17+0)*4
  kb.sts(sh_a, v);
  // thread 0: shared[0][0] = m[row0-1][col0-1]
  PredReg t0 = kb.pred();
  kb.setp(t0, CmpOp::kEq, DType::kI32, tx, imm(0));
  Reg g_corner = util::elem_addr2d(kb, mat, rm1, ncols, cm1);
  kb.ldg(v, g_corner).guard_if(t0);
  kb.sts(imm(0), v).guard_if(t0);
  kb.bar();

  // ---- Wavefront sweep ----
  // Thread tx owns column tx; at step s it computes cell (i=s-tx, j=tx)
  // when 0 <= i < 16 (checked with one unsigned compare).
  Reg i_r = kb.reg(), nw = kb.reg(), up = kb.reg(), left = kb.reg(),
      rv = kb.reg(), best = kb.reg(), tmp = kb.reg(), sh_nw = kb.reg(),
      sh_up = kb.reg(), sh_left = kb.reg(), sh_dst = kb.reg(),
      g_ref = kb.reg(), lin = kb.reg(), row_i = kb.reg();
  PredReg act = kb.pred();
  for (u32 s = 0; s < 2 * kT - 1; ++s) {
    kb.isub(i_r, imm(static_cast<i32>(s)), tx);
    kb.setp(act, CmpOp::kLt, DType::kU32, i_r, imm(static_cast<i32>(kT)));
    // shared indices: dst=(i+1,tx+1), nw=(i,tx), up=(i,tx+1), left=(i+1,tx)
    kb.imad(lin, i_r, imm(static_cast<i32>(kShDim)), tx).guard_if(act);
    kb.imul(sh_nw, lin, imm(4)).guard_if(act);
    kb.iadd(sh_up, sh_nw, imm(4)).guard_if(act);
    kb.iadd(sh_left, sh_nw, imm(static_cast<i32>(kShDim * 4))).guard_if(act);
    kb.iadd(sh_dst, sh_left, imm(4)).guard_if(act);
    kb.lds(nw, sh_nw).guard_if(act);
    kb.lds(up, sh_up).guard_if(act);
    kb.lds(left, sh_left).guard_if(act);
    // ref[row0+i][col0+tx]
    kb.iadd(row_i, row0, i_r).guard_if(act);
    kb.imad(lin, row_i, ncols, col_t).guard_if(act);
    kb.imad(g_ref, lin, imm(4), ref).guard_if(act);
    kb.ldg(rv, g_ref).guard_if(act);
    // best = max(nw + ref, max(up + pen, left + pen))
    kb.iadd(best, nw, rv).guard_if(act);
    kb.iadd(tmp, up, pen).guard_if(act);
    kb.imax(best, best, tmp).guard_if(act);
    kb.iadd(tmp, left, pen).guard_if(act);
    kb.imax(best, best, tmp).guard_if(act);
    kb.sts(sh_dst, best).guard_if(act);
    kb.bar();
  }

  // ---- Store tile back ----
  for (u32 i = 0; i < kT; ++i) {
    kb.imad(lin, tx, imm(1), imm(static_cast<i32>((i + 1) * kShDim + 1)));
    kb.imul(sh_dst, lin, imm(4));
    kb.lds(v, sh_dst);
    Reg row_s = kb.reg();
    kb.iadd(row_s, row0, imm(static_cast<i32>(i)));
    Reg g_out = util::elem_addr2d(kb, mat, row_s, ncols, col_t);
    kb.stg(g_out, v);
  }
  kb.exit();
  return kb.build();
}

}  // namespace

void Nw::setup(Scale scale, u64 seed) {
  n_ = scale == Scale::kTest ? 64 : 256;
  Rng rng(seed);
  const u32 dim = n_ + 1;

  ref_matrix_.assign(static_cast<size_t>(dim) * dim, 0);
  for (u32 r = 1; r <= n_; ++r)
    for (u32 c = 1; c <= n_; ++c)
      ref_matrix_[static_cast<size_t>(r) * dim + c] =
          static_cast<i32>(rng.next_below(10)) - 4;

  // CPU reference: plain DP (integer arithmetic, so tile order is exact).
  reference_.assign(static_cast<size_t>(dim) * dim, 0);
  for (u32 c = 0; c <= n_; ++c)
    reference_[c] = static_cast<i32>(c) * kPenalty;
  for (u32 r = 0; r <= n_; ++r)
    reference_[static_cast<size_t>(r) * dim] = static_cast<i32>(r) * kPenalty;
  for (u32 r = 1; r <= n_; ++r) {
    for (u32 c = 1; c <= n_; ++c) {
      const i32 nw = reference_[static_cast<size_t>(r - 1) * dim + (c - 1)] +
                     ref_matrix_[static_cast<size_t>(r) * dim + c];
      const i32 up = reference_[static_cast<size_t>(r - 1) * dim + c] + kPenalty;
      const i32 left = reference_[static_cast<size_t>(r) * dim + (c - 1)] + kPenalty;
      reference_[static_cast<size_t>(r) * dim + c] = std::max({nw, up, left});
    }
  }
  result_.clear();
}

void Nw::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  const u64 input_bytes = 2ull * (n_ + 1) * (n_ + 1) * 4;
  session.device().host_parse(input_bytes * 4);  // sequence generation + host traceback

  const u32 dim = n_ + 1;
  const u64 bytes = static_cast<u64>(dim) * dim * 4;
  core::ReplicaPtr d_mat = session.alloc(bytes);
  core::ReplicaPtr d_ref = session.alloc(bytes);

  std::vector<i32> init(static_cast<size_t>(dim) * dim, 0);
  for (u32 c = 0; c <= n_; ++c) init[c] = static_cast<i32>(c) * kPenalty;
  for (u32 r = 0; r <= n_; ++r)
    init[static_cast<size_t>(r) * dim] = static_cast<i32>(r) * kPenalty;
  session.h2d(d_mat, init.data(), bytes);
  session.h2d(d_ref, ref_matrix_.data(), bytes);

  isa::ProgramPtr prog = build_nw_tile_kernel();
  const u32 nb = n_ / kTile;
  for (u32 d = 0; d < 2 * nb - 1; ++d) {
    const u32 bi_start = d < nb ? 0 : d - nb + 1;
    const u32 bi_end = std::min(d, nb - 1);
    const u32 blocks = bi_end - bi_start + 1;
    session.launch(prog, sim::Dim3{blocks, 1, 1}, sim::Dim3{kTile, 1, 1},
                   {d_mat, d_ref, dim, d, bi_start, kPenalty});
    // Tiles of the next diagonal depend on this one: stream order suffices.
  }
  session.sync();

  result_.resize(static_cast<size_t>(dim) * dim);
  session.d2h(result_.data(), d_mat, bytes);
  session.compare(d_mat, bytes, result_.data());
}

bool Nw::verify() const { return result_ == reference_; }

}  // namespace higpu::workloads
