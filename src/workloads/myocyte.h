// myocyte — cardiac myocyte ODE simulation (Rodinia): a single long-running
// thread block integrating stiff ODEs with transcendental-heavy right-hand
// sides. The GPU cannot be filled by one copy, yet the kernel runs long —
// the pathological case for SRRS serialization (~2x in Fig. 4) while HALF
// is free.
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class Myocyte final : public Workload {
 public:
  std::string name() const override { return "myocyte"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  u32 cells_ = 0;  // one thread per cell (single block)
  u32 steps_ = 0;
  std::vector<float> y0_;
  std::vector<float> reference_;
  std::vector<float> result_;
};

}  // namespace higpu::workloads
