// dwt2d — 2D discrete wavelet transform (Rodinia): per level, a Haar
// row-transform kernel followed by a column-transform kernel, each level
// operating on the top-left quadrant of the previous one. Medium-sized
// friendly kernels with strided memory access.
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class Dwt2d final : public Workload {
 public:
  std::string name() const override { return "dwt2d"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  u32 dim_ = 0;
  u32 levels_ = 0;
  std::vector<float> image_;
  std::vector<float> reference_;
  std::vector<float> result_;
};

}  // namespace higpu::workloads
