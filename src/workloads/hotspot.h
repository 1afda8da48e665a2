// hotspot — 2D thermal simulation (Rodinia): iterative 5-point stencil over
// a temperature grid driven by a power map. One kernel launch per time step
// on 16x16 thread blocks with ping-pong buffers. A classic "friendly"
// kernel: many medium blocks, moderate resources.
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class Hotspot final : public Workload {
 public:
  std::string name() const override { return "hotspot"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  u32 dim_ = 0;
  u32 steps_ = 0;
  std::vector<float> temp_;
  std::vector<float> power_;
  std::vector<float> reference_;
  std::vector<float> result_;
};

}  // namespace higpu::workloads
