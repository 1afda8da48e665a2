// streamcluster — online clustering (Rodinia): repeated candidate-center
// evaluation kernels computing, for every point, the distance to a candidate
// and the resulting cost delta. Points are synthesized in memory and the
// many compute-dense kernel launches dominate end-to-end time — the second
// benchmark with visible redundancy cost in Fig. 5.
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class Streamcluster final : public Workload {
 public:
  std::string name() const override { return "streamcluster"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  static constexpr u32 kDims = 32;
  u32 n_ = 0;
  u32 candidates_ = 0;
  std::vector<float> points_;      // n x kDims
  std::vector<float> reference_;   // final min-cost per point
  std::vector<float> result_;
};

}  // namespace higpu::workloads
