#include "workloads/lud.h"

#include <cmath>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

constexpr u32 kT = 16;

/// Shared-memory tile helpers: tiles are kT x kT floats.
constexpr u32 kTileBytes = kT * kT * 4;

/// Emit code loading global tile (brow, bcol) into shared memory at
/// `sh_base` bytes; each 16x16 thread moves one element. `ty`/`tx` are the
/// thread coordinates, `mat`/`n` the matrix base and dimension, and
/// `brow`/`bcol` tile indices in registers.
void emit_tile_load(isa::KernelBuilder& kb, isa::Reg mat, isa::Reg n,
                    isa::Reg brow, isa::Reg bcol, isa::Reg ty, isa::Reg tx,
                    u32 sh_base) {
  using namespace isa;
  Reg row = kb.reg(), col = kb.reg(), lin = kb.reg(), g = kb.reg(),
      sh = kb.reg(), v = kb.reg();
  kb.imad(row, brow, imm(static_cast<i32>(kT)), ty);
  kb.imad(col, bcol, imm(static_cast<i32>(kT)), tx);
  kb.imad(lin, row, n, col);
  kb.imad(g, lin, imm(4), mat);
  kb.ldg(v, g);
  kb.imad(lin, ty, imm(static_cast<i32>(kT)), tx);
  kb.imad(sh, lin, imm(4), imm(static_cast<i32>(sh_base)));
  kb.sts(sh, v);
}

/// Emit code storing shared tile at `sh_base` back to global tile
/// (brow, bcol).
void emit_tile_store(isa::KernelBuilder& kb, isa::Reg mat, isa::Reg n,
                     isa::Reg brow, isa::Reg bcol, isa::Reg ty, isa::Reg tx,
                     u32 sh_base) {
  using namespace isa;
  Reg row = kb.reg(), col = kb.reg(), lin = kb.reg(), g = kb.reg(),
      sh = kb.reg(), v = kb.reg();
  kb.imad(lin, ty, imm(static_cast<i32>(kT)), tx);
  kb.imad(sh, lin, imm(4), imm(static_cast<i32>(sh_base)));
  kb.lds(v, sh);
  kb.imad(row, brow, imm(static_cast<i32>(kT)), ty);
  kb.imad(col, bcol, imm(static_cast<i32>(kT)), tx);
  kb.imad(lin, row, n, col);
  kb.imad(g, lin, imm(4), mat);
  kb.stg(g, v);
}

/// Diagonal kernel: in-place LU of tile (k,k). One 16x16 block.
/// Params: mat, n, k.
isa::ProgramPtr build_lud_diagonal() {
  using namespace isa;
  KernelBuilder kb("lud_diagonal");
  kb.set_shared_bytes(kTileBytes);

  Reg mat = kb.reg(), n = kb.reg(), k = kb.reg();
  kb.ldp(mat, 0);
  kb.ldp(n, 1);
  kb.ldp(k, 2);
  Reg tx = kb.reg(), ty = kb.reg();
  kb.s2r(tx, SReg::kTidX);
  kb.s2r(ty, SReg::kTidY);

  emit_tile_load(kb, mat, n, k, k, ty, tx, 0);
  kb.bar();

  // My element's shared address.
  Reg lin = kb.reg(), my_sh = kb.reg();
  kb.imad(lin, ty, imm(static_cast<i32>(kT)), tx);
  kb.imul(my_sh, lin, imm(4));

  Reg l = kb.reg(), u = kb.reg(), mine = kb.reg(), prod = kb.reg(),
      piv = kb.reg(), a_l = kb.reg(), a_u = kb.reg();
  // All three predicates are reused across the unrolled pivot iterations:
  // each is fully consumed within its iteration, and 3*(kT-1) fresh
  // allocations would blow the 8-register predicate file.
  PredReg p_row = kb.pred(), p_l = kb.pred(), p_in = kb.pred();
  for (u32 i = 0; i + 1 < kT; ++i) {
    kb.setp(p_row, CmpOp::kGt, DType::kI32, ty, imm(static_cast<i32>(i)));
    // L column: threads (ty>i, tx==i) divide by the pivot.
    kb.setp_and(p_l, CmpOp::kEq, DType::kI32, tx, imm(static_cast<i32>(i)),
                p_row);
    kb.lds(piv, imm(static_cast<i32>((i * kT + i) * 4)));
    kb.lds(mine, my_sh).guard_if(p_l);
    kb.fdiv(mine, mine, piv).guard_if(p_l);
    kb.sts(my_sh, mine).guard_if(p_l);
    kb.bar();
    // Trailing update: threads (ty>i, tx>i).
    kb.setp_and(p_in, CmpOp::kGt, DType::kI32, tx, imm(static_cast<i32>(i)),
                p_row);
    kb.imad(a_l, ty, imm(static_cast<i32>(kT * 4)),
            imm(static_cast<i32>(i * 4)));
    kb.lds(l, a_l).guard_if(p_in);
    kb.imad(a_u, tx, imm(4), imm(static_cast<i32>(i * kT * 4)));
    kb.lds(u, a_u).guard_if(p_in);
    kb.lds(mine, my_sh).guard_if(p_in);
    kb.fmul(prod, l, u).guard_if(p_in);
    kb.fsub(mine, mine, prod).guard_if(p_in);
    kb.sts(my_sh, mine).guard_if(p_in);
    kb.bar();
  }

  emit_tile_store(kb, mat, n, k, k, ty, tx, 0);
  kb.exit();
  return kb.build();
}

/// Row-perimeter kernel: A[k][j] <- L_kk^-1 * A[k][j] for j = k+1+blockIdx.x.
/// Shared: L tile at 0, A tile at kTileBytes. Params: mat, n, k.
isa::ProgramPtr build_lud_row_perimeter() {
  using namespace isa;
  KernelBuilder kb("lud_perimeter_row");
  kb.set_shared_bytes(2 * kTileBytes);

  Reg mat = kb.reg(), n = kb.reg(), k = kb.reg();
  kb.ldp(mat, 0);
  kb.ldp(n, 1);
  kb.ldp(k, 2);
  Reg tx = kb.reg(), ty = kb.reg(), cta = kb.reg();
  kb.s2r(tx, SReg::kTidX);
  kb.s2r(ty, SReg::kTidY);
  kb.s2r(cta, SReg::kCtaIdX);
  Reg j = kb.reg();
  kb.iadd(j, k, cta);
  kb.iadd(j, j, imm(1));

  emit_tile_load(kb, mat, n, k, k, ty, tx, 0);           // L tile
  emit_tile_load(kb, mat, n, k, j, ty, tx, kTileBytes);  // A tile
  kb.bar();

  Reg lin = kb.reg(), my_sh = kb.reg();
  kb.imad(lin, ty, imm(static_cast<i32>(kT)), tx);
  kb.imad(my_sh, lin, imm(4), imm(static_cast<i32>(kTileBytes)));

  Reg l = kb.reg(), u = kb.reg(), mine = kb.reg(), prod = kb.reg(),
      a_l = kb.reg();
  // Reused per-iteration predicate; see build_lud_diagonal.
  PredReg p = kb.pred();
  for (u32 i = 0; i + 1 < kT; ++i) {
    kb.setp(p, CmpOp::kGt, DType::kI32, ty, imm(static_cast<i32>(i)));
    kb.imad(a_l, ty, imm(static_cast<i32>(kT * 4)),
            imm(static_cast<i32>(i * 4)));
    kb.lds(l, a_l).guard_if(p);
    // u = A[i][tx]: address = kTileBytes + (i*kT + tx)*4
    kb.imad(a_l, tx, imm(4), imm(static_cast<i32>(kTileBytes + i * kT * 4)))
        .guard_if(p);
    kb.lds(u, a_l).guard_if(p);
    kb.lds(mine, my_sh).guard_if(p);
    kb.fmul(prod, l, u).guard_if(p);
    kb.fsub(mine, mine, prod).guard_if(p);
    kb.sts(my_sh, mine).guard_if(p);
    kb.bar();
  }

  emit_tile_store(kb, mat, n, k, j, ty, tx, kTileBytes);
  kb.exit();
  return kb.build();
}

/// Column-perimeter kernel: A[i][k] <- A[i][k] * U_kk^-1 for
/// i = k+1+blockIdx.x. Shared: U tile at 0, A tile at kTileBytes.
isa::ProgramPtr build_lud_col_perimeter() {
  using namespace isa;
  KernelBuilder kb("lud_perimeter_col");
  kb.set_shared_bytes(2 * kTileBytes);

  Reg mat = kb.reg(), n = kb.reg(), k = kb.reg();
  kb.ldp(mat, 0);
  kb.ldp(n, 1);
  kb.ldp(k, 2);
  Reg tx = kb.reg(), ty = kb.reg(), cta = kb.reg();
  kb.s2r(tx, SReg::kTidX);
  kb.s2r(ty, SReg::kTidY);
  kb.s2r(cta, SReg::kCtaIdX);
  Reg i_blk = kb.reg();
  kb.iadd(i_blk, k, cta);
  kb.iadd(i_blk, i_blk, imm(1));

  emit_tile_load(kb, mat, n, k, k, ty, tx, 0);               // U tile
  emit_tile_load(kb, mat, n, i_blk, k, ty, tx, kTileBytes);  // A tile
  kb.bar();

  Reg lin = kb.reg(), my_sh = kb.reg();
  kb.imad(lin, ty, imm(static_cast<i32>(kT)), tx);
  kb.imad(my_sh, lin, imm(4), imm(static_cast<i32>(kTileBytes)));

  Reg xj = kb.reg(), u = kb.reg(), mine = kb.reg(), prod = kb.reg(),
      a_x = kb.reg(), a_u = kb.reg(), piv = kb.reg();
  // Reused per-iteration predicates; see build_lud_diagonal.
  PredReg p_div = kb.pred(), p_upd = kb.pred();
  for (u32 jcol = 0; jcol < kT; ++jcol) {
    // Divide column jcol by U[j][j].
    kb.setp(p_div, CmpOp::kEq, DType::kI32, tx, imm(static_cast<i32>(jcol)));
    kb.lds(piv, imm(static_cast<i32>((jcol * kT + jcol) * 4)));
    kb.lds(mine, my_sh).guard_if(p_div);
    kb.fdiv(mine, mine, piv).guard_if(p_div);
    kb.sts(my_sh, mine).guard_if(p_div);
    kb.bar();
    if (jcol + 1 == kT) break;
    // Update columns tx > jcol: a[ty][tx] -= a[ty][jcol] * U[jcol][tx].
    kb.setp(p_upd, CmpOp::kGt, DType::kI32, tx, imm(static_cast<i32>(jcol)));
    kb.imad(a_x, ty, imm(static_cast<i32>(kT * 4)),
            imm(static_cast<i32>(kTileBytes + jcol * 4)));
    kb.lds(xj, a_x).guard_if(p_upd);
    kb.imad(a_u, tx, imm(4), imm(static_cast<i32>(jcol * kT * 4)));
    kb.lds(u, a_u).guard_if(p_upd);
    kb.lds(mine, my_sh).guard_if(p_upd);
    kb.fmul(prod, xj, u).guard_if(p_upd);
    kb.fsub(mine, mine, prod).guard_if(p_upd);
    kb.sts(my_sh, mine).guard_if(p_upd);
    kb.bar();
  }

  emit_tile_store(kb, mat, n, i_blk, k, ty, tx, kTileBytes);
  kb.exit();
  return kb.build();
}

/// Internal kernel: A[i][j] -= A[i][k] * A[k][j] over the trailing
/// submatrix; blockIdx = (j-k-1, i-k-1). Shared: L tile, U tile.
isa::ProgramPtr build_lud_internal() {
  using namespace isa;
  KernelBuilder kb("lud_internal");
  kb.set_shared_bytes(2 * kTileBytes);

  Reg mat = kb.reg(), n = kb.reg(), k = kb.reg();
  kb.ldp(mat, 0);
  kb.ldp(n, 1);
  kb.ldp(k, 2);
  Reg tx = kb.reg(), ty = kb.reg(), cx = kb.reg(), cy = kb.reg();
  kb.s2r(tx, SReg::kTidX);
  kb.s2r(ty, SReg::kTidY);
  kb.s2r(cx, SReg::kCtaIdX);
  kb.s2r(cy, SReg::kCtaIdY);
  Reg bi = kb.reg(), bj = kb.reg();
  kb.iadd(bi, k, cy);
  kb.iadd(bi, bi, imm(1));
  kb.iadd(bj, k, cx);
  kb.iadd(bj, bj, imm(1));

  emit_tile_load(kb, mat, n, bi, k, ty, tx, 0);           // L tile A[i][k]
  emit_tile_load(kb, mat, n, k, bj, ty, tx, kTileBytes);  // U tile A[k][j]
  kb.bar();

  // acc = A[i*16+ty][j*16+tx]
  Reg row = kb.reg(), col = kb.reg(), lin = kb.reg(), g = kb.reg(),
      acc = kb.reg();
  kb.imad(row, bi, imm(static_cast<i32>(kT)), ty);
  kb.imad(col, bj, imm(static_cast<i32>(kT)), tx);
  kb.imad(lin, row, n, col);
  kb.imad(g, lin, imm(4), mat);
  kb.ldg(acc, g);

  Reg l = kb.reg(), u = kb.reg(), prod = kb.reg(), a_l = kb.reg(),
      a_u = kb.reg();
  for (u32 m = 0; m < kT; ++m) {
    kb.imad(a_l, ty, imm(static_cast<i32>(kT * 4)),
            imm(static_cast<i32>(m * 4)));
    kb.lds(l, a_l);
    kb.imad(a_u, tx, imm(4), imm(static_cast<i32>(kTileBytes + m * kT * 4)));
    kb.lds(u, a_u);
    kb.fmul(prod, l, u);
    kb.fsub(acc, acc, prod);
  }
  kb.stg(g, acc);
  kb.exit();
  return kb.build();
}

}  // namespace

void Lud::setup(Scale scale, u64 seed) {
  n_ = scale == Scale::kTest ? 32 : 256;
  Rng rng(seed);

  matrix_.resize(static_cast<size_t>(n_) * n_);
  for (u32 r = 0; r < n_; ++r) {
    float sum = 0.0f;
    for (u32 c = 0; c < n_; ++c) {
      matrix_[static_cast<size_t>(r) * n_ + c] = rng.next_float(-1.0f, 1.0f);
      sum += std::fabs(matrix_[static_cast<size_t>(r) * n_ + c]);
    }
    matrix_[static_cast<size_t>(r) * n_ + r] += sum + 1.0f;
  }

  // CPU reference: identical blocked algorithm, identical operation order.
  reference_ = matrix_;
  auto at = [&](u32 r, u32 c) -> float& {
    return reference_[static_cast<size_t>(r) * n_ + c];
  };
  const u32 nb = n_ / kTile;
  for (u32 k = 0; k < nb; ++k) {
    const u32 base = k * kTile;
    // Diagonal.
    for (u32 i = 0; i + 1 < kTile; ++i) {
      for (u32 r = i + 1; r < kTile; ++r)
        at(base + r, base + i) /= at(base + i, base + i);
      for (u32 r = i + 1; r < kTile; ++r)
        for (u32 c = i + 1; c < kTile; ++c)
          at(base + r, base + c) -=
              at(base + r, base + i) * at(base + i, base + c);
    }
    // Row perimeter.
    for (u32 jb = k + 1; jb < nb; ++jb) {
      const u32 cb = jb * kTile;
      for (u32 i = 0; i + 1 < kTile; ++i)
        for (u32 r = i + 1; r < kTile; ++r)
          for (u32 c = 0; c < kTile; ++c)
            at(base + r, cb + c) -=
                at(base + r, base + i) * at(base + i, cb + c);
    }
    // Column perimeter.
    for (u32 ib = k + 1; ib < nb; ++ib) {
      const u32 rb = ib * kTile;
      for (u32 j = 0; j < kTile; ++j) {
        for (u32 r = 0; r < kTile; ++r)
          at(rb + r, base + j) /= at(base + j, base + j);
        for (u32 r = 0; r < kTile; ++r)
          for (u32 c = j + 1; c < kTile; ++c)
            at(rb + r, base + c) -=
                at(rb + r, base + j) * at(base + j, base + c);
      }
    }
    // Internal.
    for (u32 ib = k + 1; ib < nb; ++ib)
      for (u32 jb = k + 1; jb < nb; ++jb)
        for (u32 r = 0; r < kTile; ++r)
          for (u32 c = 0; c < kTile; ++c) {
            float acc = at(ib * kTile + r, jb * kTile + c);
            for (u32 m = 0; m < kTile; ++m)
              acc -= at(ib * kTile + r, base + m) * at(base + m, jb * kTile + c);
            at(ib * kTile + r, jb * kTile + c) = acc;
          }
  }
  result_.clear();
}

void Lud::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  const u64 input_bytes = static_cast<u64>(n_) * n_ * 4;
  session.device().host_parse(input_bytes * 8);  // textual matrix file

  const u64 bytes = static_cast<u64>(n_) * n_ * 4;
  core::ReplicaPtr d_mat = session.alloc(bytes);
  session.h2d(d_mat, matrix_.data(), bytes);

  isa::ProgramPtr diag = build_lud_diagonal();
  isa::ProgramPtr row_perim = build_lud_row_perimeter();
  isa::ProgramPtr col_perim = build_lud_col_perimeter();
  isa::ProgramPtr internal = build_lud_internal();

  const u32 nb = n_ / kTile;
  for (u32 k = 0; k < nb; ++k) {
    session.launch(diag, sim::Dim3{1, 1, 1}, sim::Dim3{kTile, kTile, 1},
                   {d_mat, n_, k});
    const u32 rem = nb - k - 1;
    if (rem == 0) break;
    session.launch(row_perim, sim::Dim3{rem, 1, 1},
                   sim::Dim3{kTile, kTile, 1}, {d_mat, n_, k});
    session.launch(col_perim, sim::Dim3{rem, 1, 1},
                   sim::Dim3{kTile, kTile, 1}, {d_mat, n_, k});
    session.launch(internal, sim::Dim3{rem, rem, 1},
                   sim::Dim3{kTile, kTile, 1}, {d_mat, n_, k});
  }
  session.sync();

  result_.resize(static_cast<size_t>(n_) * n_);
  session.d2h(result_.data(), d_mat, bytes);
  session.compare(d_mat, bytes, result_.data());
}

bool Lud::verify() const { return approx_equal(result_, reference_, 5e-3f); }

}  // namespace higpu::workloads
