#include <gtest/gtest.h>

#include <string>

#include "ckpt/serial.h"
#include "isa/builder.h"
#include "isa/opcode.h"
#include "isa/program.h"

namespace higpu::isa {
namespace {

TEST(Opcode, UnitClasses) {
  EXPECT_EQ(unit_class(Op::kIadd), UnitClass::kSp);
  EXPECT_EQ(unit_class(Op::kFfma), UnitClass::kSp);
  EXPECT_EQ(unit_class(Op::kFdiv), UnitClass::kSfu);
  EXPECT_EQ(unit_class(Op::kFsqrt), UnitClass::kSfu);
  EXPECT_EQ(unit_class(Op::kLdg), UnitClass::kMem);
  EXPECT_EQ(unit_class(Op::kSts), UnitClass::kMem);
  EXPECT_EQ(unit_class(Op::kBra), UnitClass::kCtrl);
  EXPECT_EQ(unit_class(Op::kBar), UnitClass::kCtrl);
}

TEST(Opcode, WriteClassification) {
  EXPECT_TRUE(writes_gpr(Op::kIadd));
  EXPECT_TRUE(writes_gpr(Op::kLdg));
  EXPECT_TRUE(writes_gpr(Op::kAtomAdd));
  EXPECT_FALSE(writes_gpr(Op::kStg));
  EXPECT_FALSE(writes_gpr(Op::kSetp));
  EXPECT_FALSE(writes_gpr(Op::kBra));
  EXPECT_TRUE(writes_pred(Op::kSetp));
  EXPECT_FALSE(writes_pred(Op::kIadd));
}

TEST(Opcode, MemClassification) {
  EXPECT_TRUE(is_global_mem(Op::kLdg));
  EXPECT_TRUE(is_global_mem(Op::kAtomAdd));
  EXPECT_FALSE(is_global_mem(Op::kLds));
  EXPECT_TRUE(is_shared_mem(Op::kLds));
  EXPECT_FALSE(is_shared_mem(Op::kStg));
}

TEST(Opcode, TableFactsArePinned) {
  // One line per opcode: mnemonic, unit, source count, writeback, datapath
  // flag and memory space, hashed with FNV-1a. The pin was captured from the
  // per-opcode switch functions the table replaced (unit_class, writes_gpr,
  // writes_pred, is_datapath, is_global_mem, is_shared_mem, op_name and the
  // verifier's source count), so a row that drifts from them fails here.
  static const char* const kUnit[] = {"sp", "sfu", "mem", "ctrl"};
  static const char* const kWriteback[] = {"none", "gpr", "pred"};
  static const char* const kMem[] = {"none", "global", "shared"};
  std::string s;
  for (const OpInfo& row : kOpTable) {
    s += row.name;
    s += ' ';
    s += kUnit[static_cast<u32>(row.unit)];
    s += ' ' + std::to_string(row.nsrc) + ' ';
    s += kWriteback[static_cast<u32>(row.writeback)];
    s += row.datapath ? " datapath " : " - ";
    s += kMem[static_cast<u32>(row.mem)];
    s += '\n';
  }
  EXPECT_EQ(0xcd5c8d641cd774ebull,
            ckpt::fnv1a(reinterpret_cast<const u8*>(s.data()), s.size()))
      << s;
}

TEST(Builder, AllocatesDistinctRegisters) {
  KernelBuilder kb("t");
  Reg a = kb.reg(), b = kb.reg();
  EXPECT_NE(a.idx, b.idx);
  PredReg p = kb.pred(), q = kb.pred();
  EXPECT_NE(p.idx, q.idx);
}

TEST(Builder, ComputesResourceCounts) {
  KernelBuilder kb("t");
  Reg a = kb.reg(), b = kb.reg(), c = kb.reg();
  kb.ldp(a, 3);  // params 0..3 -> 4 params
  kb.iadd(b, a, imm(1));
  kb.iadd(c, b, a);
  kb.exit();
  auto prog = kb.build();
  EXPECT_EQ(prog->num_regs(), 3);
  EXPECT_EQ(prog->num_params(), 4u);
  EXPECT_EQ(prog->size(), 4u);
}

TEST(Builder, ResolvesForwardLabels) {
  KernelBuilder kb("t");
  Reg a = kb.reg();
  PredReg p = kb.pred();
  Label skip = kb.label();
  kb.movi(a, 0);
  kb.setp(p, CmpOp::kEq, DType::kI32, a, imm(0));
  kb.bra(skip).guard_if(p);
  kb.movi(a, 1);
  kb.bind(skip);
  kb.exit();
  auto prog = kb.build();
  EXPECT_EQ(prog->at(2).target, 4u);
}

TEST(Builder, ThrowsOnUnterminatedProgram) {
  KernelBuilder kb("t");
  Reg a = kb.reg();
  kb.movi(a, 1);
  EXPECT_THROW(kb.build(), std::logic_error);
}

TEST(Builder, ThrowsOnUnboundLabel) {
  KernelBuilder kb("t");
  Label l = kb.label();
  kb.bra(l);
  kb.exit();
  EXPECT_THROW(kb.build(), std::logic_error);
}

TEST(Builder, ThrowsOnGuardedBarrier) {
  KernelBuilder kb("t");
  PredReg p = kb.pred();
  Reg a = kb.reg();
  kb.movi(a, 0);
  kb.setp(p, CmpOp::kEq, DType::kI32, a, imm(0));
  kb.bar().guard_if(p);
  kb.exit();
  EXPECT_THROW(kb.build(), std::logic_error);
}

TEST(Builder, UnconditionalTrailingBraIsValid) {
  KernelBuilder kb("t");
  Label top = kb.label();
  kb.bind(top);
  kb.exit();
  // Program ending in unconditional bra (to exit) is structurally fine.
  KernelBuilder kb2("t2");
  Label end = kb2.label();
  kb2.bind(end);
  kb2.exit();
  EXPECT_NO_THROW(kb2.build());
}

TEST(Builder, SharedBytesAndDisassembly) {
  KernelBuilder kb("shmem_kernel");
  kb.set_shared_bytes(1024);
  Reg a = kb.reg(), v = kb.reg();
  kb.movi(a, 0);
  kb.lds(v, a, 16);
  kb.sts(a, v, 32);
  kb.exit();
  auto prog = kb.build();
  EXPECT_EQ(prog->shared_bytes(), 1024u);
  const std::string dis = prog->disassemble();
  EXPECT_NE(dis.find("lds"), std::string::npos);
  EXPECT_NE(dis.find("sts"), std::string::npos);
  EXPECT_NE(dis.find("shmem_kernel"), std::string::npos);
}

TEST(Builder, StaticCountsByUnit) {
  KernelBuilder kb("t");
  Reg a = kb.reg(), b = kb.reg();
  kb.movi(a, 1);
  kb.fdiv(b, a, a);
  kb.fsqrt(b, b);
  kb.exit();
  auto prog = kb.build();
  EXPECT_EQ(prog->static_count(UnitClass::kSfu), 2u);
  EXPECT_EQ(prog->static_count(UnitClass::kSp), 1u);
  EXPECT_EQ(prog->static_count(UnitClass::kCtrl), 1u);
}

TEST(Builder, GuardRangeEmitsGuardedBranch) {
  KernelBuilder kb("t");
  Reg gid = kb.global_tid_x();
  Label done = kb.label();
  kb.guard_range(gid, imm(100), done);
  kb.bind(done);
  kb.exit();
  auto prog = kb.build();
  // The branch is the second-to-last instruction, guarded.
  const Instruction& bra = prog->at(prog->size() - 2);
  EXPECT_EQ(bra.op, Op::kBra);
  EXPECT_NE(bra.guard, kNoPred);
}

}  // namespace
}  // namespace higpu::isa
