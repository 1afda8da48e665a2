// Optional instruction-issue trace interface.
//
// core::InstrTraceCollector subscribes to this to measure *temporal diversity
// slack*: the minimum time distance between corresponding instruction
// executions of a redundant kernel pair (paper §IV.C). Identity of an
// instruction instance is (launch, logical block, warp-in-block, per-warp
// issue sequence number) — identical across policies because functional
// execution is deterministic.
#pragma once

#include "common/types.h"

namespace higpu::sim {

class ITraceSink {
 public:
  virtual ~ITraceSink() = default;
  virtual void record(u32 launch_id, u32 block_linear, u32 warp_in_block,
                      u64 instr_seq, u32 sm, Cycle cycle) = 0;
};

}  // namespace higpu::sim
