// bfs — level-synchronous breadth-first search (Rodinia): two very short
// kernels per level plus a host-read termination flag. Like backprop, its
// kernels are too short to overlap but need many blocks, so SRRS is
// innocuous while HALF costs (Fig. 4).
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class Bfs final : public Workload {
 public:
  std::string name() const override { return "bfs"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  u32 num_nodes_ = 0;
  std::vector<u32> offsets_;  // CSR: num_nodes_+1
  std::vector<u32> edges_;
  std::vector<i32> reference_cost_;
  std::vector<i32> result_cost_;
};

}  // namespace higpu::workloads
