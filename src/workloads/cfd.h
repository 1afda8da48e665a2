// cfd — unstructured-grid Euler solver (Rodinia euler3d): per iteration, a
// short step-factor kernel and a heavy flux kernel walking each element's
// neighbour list with division/sqrt-dense arithmetic. End-to-end time is
// dominated by kernel execution — one of the two benchmarks where redundant
// serialized execution visibly costs (Fig. 5).
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class Cfd final : public Workload {
 public:
  std::string name() const override { return "cfd"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  static constexpr u32 kNeighbors = 4;
  u32 n_ = 0;
  u32 iters_ = 0;
  std::vector<i32> neighbors_;   // n x kNeighbors element indices
  std::vector<float> density_;
  std::vector<float> momentum_;  // n (1D momentum magnitude, simplified)
  std::vector<float> energy_;
  std::vector<float> ref_density_;
  std::vector<float> got_density_;
  std::vector<float> got_energy_;
};

}  // namespace higpu::workloads
