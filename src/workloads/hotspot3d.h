// hotspot3D — 3D thermal simulation (Rodinia): 7-point stencil over a
// (dim x dim x layers) grid, one kernel launch per time step with ping-pong
// buffers. Larger blocks and more memory traffic than 2D hotspot.
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class Hotspot3d final : public Workload {
 public:
  std::string name() const override { return "hotspot3D"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  u32 dim_ = 0;     // x/y extent
  u32 layers_ = 0;  // z extent
  u32 steps_ = 0;
  std::vector<float> temp_;
  std::vector<float> power_;
  std::vector<float> reference_;
  std::vector<float> result_;
};

}  // namespace higpu::workloads
