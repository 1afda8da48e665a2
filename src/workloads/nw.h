// nw — Needleman-Wunsch sequence alignment (Rodinia): integer dynamic
// programming processed in 16x16 tiles along anti-diagonals. One kernel
// launch per tile diagonal (2*nb-1 launches of 1..nb small blocks); inside a
// block the tile is swept wavefront-style in shared memory with a barrier
// per step. Many short, narrow kernels.
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class Nw final : public Workload {
 public:
  std::string name() const override { return "nw"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  static constexpr u32 kTile = 16;
  static constexpr i32 kPenalty = -2;
  u32 n_ = 0;  // alignment length; DP matrix is (n_+1)^2
  std::vector<i32> ref_matrix_;  // similarity scores, (n_+1)^2
  std::vector<i32> reference_;   // CPU DP result
  std::vector<i32> result_;
};

}  // namespace higpu::workloads
