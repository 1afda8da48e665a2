// pathfinder — grid dynamic programming (Rodinia): row by row, each cell
// adds its weight to the minimum of the three neighbours below. One short,
// wide kernel per row; data is synthesized in host memory.
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class Pathfinder final : public Workload {
 public:
  std::string name() const override { return "pathfinder"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  u32 cols_ = 0;
  u32 rows_ = 0;
  std::vector<i32> data_;       // rows x cols weights
  std::vector<i32> reference_;  // final DP row
  std::vector<i32> result_;
};

}  // namespace higpu::workloads
