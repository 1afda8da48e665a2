// Block-level spatial/temporal diversity (analyze_block_diversity) and
// instruction-level temporal slack (InstrTraceCollector), paper §IV.B/C.
#include <gtest/gtest.h>

#include "core/diversity.h"
#include "core/exec.h"
#include "tests/test_kernels.h"

namespace higpu::core {
namespace {

using sim::BlockRecord;
using testing::make_spin_kernel;

BlockRecord rec(u32 launch, u32 block, u32 sm, Cycle start, Cycle end) {
  BlockRecord r;
  r.launch_id = launch;
  r.block_linear = block;
  r.sm = sm;
  r.intended_sm = sm;
  r.dispatch_cycle = start;
  r.end_cycle = end;
  return r;
}

TEST(BlockDiversity, DisjointSmAndTime) {
  std::vector<BlockRecord> records = {
      rec(0, 0, 0, 0, 100),
      rec(1, 0, 3, 200, 300),
  };
  const DiversityReport rep = analyze_block_diversity(records, 0, 1);
  EXPECT_EQ(rep.blocks_checked, 1u);
  EXPECT_TRUE(rep.spatially_diverse());
  EXPECT_TRUE(rep.temporally_disjoint());
}

TEST(BlockDiversity, SameSmDetected) {
  std::vector<BlockRecord> records = {
      rec(0, 0, 2, 0, 100),
      rec(1, 0, 2, 200, 300),
  };
  const DiversityReport rep = analyze_block_diversity(records, 0, 1);
  EXPECT_EQ(rep.same_sm, 1u);
  EXPECT_FALSE(rep.spatially_diverse());
  EXPECT_EQ(rep.same_sm_time_overlap, 0u);
}

TEST(BlockDiversity, TimeOverlapDetected) {
  std::vector<BlockRecord> records = {
      rec(0, 0, 0, 0, 100),
      rec(1, 0, 3, 50, 150),
  };
  const DiversityReport rep = analyze_block_diversity(records, 0, 1);
  EXPECT_EQ(rep.time_overlap, 1u);
  EXPECT_FALSE(rep.temporally_disjoint());
}

TEST(BlockDiversity, SameSmAndOverlapIsWorstCase) {
  std::vector<BlockRecord> records = {
      rec(0, 0, 1, 0, 100),
      rec(1, 0, 1, 99, 150),
  };
  const DiversityReport rep = analyze_block_diversity(records, 0, 1);
  EXPECT_EQ(rep.same_sm_time_overlap, 1u);
}

TEST(BlockDiversity, MultiplePairsAggregate) {
  std::vector<BlockRecord> records = {
      rec(0, 0, 0, 0, 10),   rec(1, 0, 3, 20, 30),
      rec(2, 0, 1, 40, 50),  rec(3, 0, 1, 45, 55),
  };
  const DiversityReport rep =
      analyze_block_diversity(records, {{0, 1}, {2, 3}});
  EXPECT_EQ(rep.blocks_checked, 2u);
  EXPECT_EQ(rep.same_sm, 1u);
  EXPECT_EQ(rep.time_overlap, 1u);
}

TEST(BlockDiversity, IgnoresUnrelatedLaunches) {
  std::vector<BlockRecord> records = {
      rec(0, 0, 0, 0, 10),
      rec(5, 0, 0, 0, 10),  // not part of the pair
      rec(1, 0, 3, 20, 30),
  };
  const DiversityReport rep = analyze_block_diversity(records, 0, 1);
  EXPECT_EQ(rep.blocks_checked, 1u);
  EXPECT_EQ(rep.same_sm, 0u);
}

// End-to-end: SRRS gives full block-level diversity on a real pair.
TEST(BlockDiversity, SrrsPairFullyDiverse) {
  runtime::Device dev;
  ExecSession::Config cfg;
  cfg.policy = sched::Policy::kSrrs;
  ExecSession s(dev, cfg);
  const u32 n = 24 * 128;
  const ReplicaPtr out = s.alloc(n * 4);
  s.launch(make_spin_kernel(30), sim::Dim3{24, 1, 1}, sim::Dim3{128, 1, 1},
           {out, n});
  s.sync();
  const DiversityReport rep =
      analyze_block_diversity(dev.gpu().block_records(), s.pairs());
  EXPECT_EQ(rep.blocks_checked, 24u);
  EXPECT_TRUE(rep.spatially_diverse());
  EXPECT_TRUE(rep.temporally_disjoint());
}

// HALF: spatially diverse by construction; copies overlap in time at block
// granularity (that is fine — temporal diversity is instruction-level).
TEST(BlockDiversity, HalfPairSpatiallyDiverse) {
  runtime::Device dev;
  ExecSession::Config cfg;
  cfg.policy = sched::Policy::kHalf;
  ExecSession s(dev, cfg);
  const u32 n = 24 * 128;
  const ReplicaPtr out = s.alloc(n * 4);
  s.launch(make_spin_kernel(200), sim::Dim3{24, 1, 1}, sim::Dim3{128, 1, 1},
           {out, n});
  s.sync();
  const DiversityReport rep =
      analyze_block_diversity(dev.gpu().block_records(), s.pairs());
  EXPECT_TRUE(rep.spatially_diverse());
}

TEST(InstrTrace, RecordsAndReportsSlack) {
  InstrTraceCollector tc;
  // Two launches, same logical instruction key, 100 cycles apart.
  tc.record(0, 0, 0, 0, 0, 1000);
  tc.record(1, 0, 0, 0, 3, 1100);
  tc.record(0, 0, 0, 1, 0, 1001);
  tc.record(1, 0, 0, 1, 3, 1500);
  const auto rep = tc.slack(0, 1, 150);
  EXPECT_EQ(rep.instr_pairs, 2u);
  EXPECT_EQ(rep.min_slack, 100u);
  EXPECT_EQ(rep.exposed, 1u);  // only the first pair is within 150 cycles
  EXPECT_NEAR(rep.mean_slack, (100.0 + 499.0) / 2.0, 0.5);
}

TEST(InstrTrace, EmptyForUnknownLaunches) {
  InstrTraceCollector tc;
  const auto rep = tc.slack(7, 8, 100);
  EXPECT_EQ(rep.instr_pairs, 0u);
  EXPECT_EQ(rep.min_slack, 0u);
}

// The headline §IV.C property: under SRRS the minimum instruction-level
// slack between copies is at least the first kernel's entire duration gap;
// under Default with tight launch gaps it can be tiny.
TEST(InstrTrace, SrrsSlackExceedsDefaultSlack) {
  auto min_slack = [&](sched::Policy policy, u32 gap) {
    sim::GpuParams p;
    p.launch_gap_cycles = gap;
    runtime::Device dev(p);
    InstrTraceCollector tc;
    dev.gpu().set_trace_sink(&tc);
    ExecSession::Config cfg;
    cfg.policy = policy;
    ExecSession s(dev, cfg);
    const u32 n = 12 * 128;
    const ReplicaPtr out = s.alloc(n * 4);
    s.launch(make_spin_kernel(100), sim::Dim3{12, 1, 1}, sim::Dim3{128, 1, 1},
             {out, n});
    s.sync();
    const auto [ida, idb] = s.pairs()[0];
    return tc.slack(ida, idb, 1).min_slack;
  };
  const Cycle srrs = min_slack(sched::Policy::kSrrs, 10);
  const Cycle def = min_slack(sched::Policy::kDefault, 10);
  EXPECT_GT(srrs, def);
}

}  // namespace
}  // namespace higpu::core
