// srad — speckle-reducing anisotropic diffusion (Rodinia): per iteration,
// kernel 1 computes gradients and the diffusion coefficient, kernel 2
// applies the divergence update. Host computes the image statistics (q0)
// between iterations.
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class Srad final : public Workload {
 public:
  std::string name() const override { return "srad"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  u32 dim_ = 0;
  u32 iters_ = 0;
  std::vector<float> image_;
  std::vector<float> reference_;
  std::vector<float> result_;
};

}  // namespace higpu::workloads
