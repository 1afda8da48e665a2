// lavaMD — molecular dynamics in a boxed domain (Rodinia): one thread block
// per box; every particle accumulates pairwise exp-kernel forces against all
// particles of the home box and its neighbour boxes. Arithmetic-dense,
// SFU-heavy, one big kernel launch.
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class LavaMd final : public Workload {
 public:
  std::string name() const override { return "lavaMD"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  static constexpr u32 kParticles = 32;  // per box
  static constexpr u32 kNeighbors = 8;   // neighbour boxes per box (incl. self)
  u32 boxes_ = 0;
  std::vector<i32> neigh_;   // boxes_ x kNeighbors box ids
  std::vector<float> px_, py_, pz_, charge_;
  std::vector<float> reference_;  // potential per particle
  std::vector<float> result_;
};

}  // namespace higpu::workloads
