// lud — blocked LU decomposition (Rodinia): per pivot-block step, a
// single-block diagonal kernel, row/column perimeter kernels, and an
// internal update kernel over the trailing submatrix. The internal kernel's
// large 2D grids make lud the worst case for HALF in the paper (~10%).
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class Lud final : public Workload {
 public:
  std::string name() const override { return "lud"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  static constexpr u32 kTile = 16;
  u32 n_ = 0;
  std::vector<float> matrix_;
  std::vector<float> reference_;
  std::vector<float> result_;
};

}  // namespace higpu::workloads
