// leukocyte — cell detection & tracking (Rodinia), reduced to its two
// characteristic kernels: a GICOV-style directional gradient-score kernel
// (compute-heavy per pixel: 8 directions x 4 radii sampled per pixel) and a
// 5x5 dilation (max filter) over the score map. Arithmetic-dense friendly
// kernels.
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class Leukocyte final : public Workload {
 public:
  std::string name() const override { return "leukocyte"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  u32 dim_ = 0;
  std::vector<float> image_;
  std::vector<float> reference_;  // dilated score map
  std::vector<float> result_;
};

}  // namespace higpu::workloads
