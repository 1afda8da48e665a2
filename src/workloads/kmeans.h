// kmeans — clustering (Rodinia): the membership-assignment kernel runs on
// the GPU (distance of every point to every centroid); recentering happens
// on the host between iterations.
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class Kmeans final : public Workload {
 public:
  std::string name() const override { return "kmeans"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  static constexpr u32 kDims = 8;
  static constexpr u32 kClusters = 8;
  u32 n_ = 0;
  u32 iters_ = 0;
  std::vector<float> points_;            // n x kDims
  std::vector<float> init_centroids_;    // kClusters x kDims
  std::vector<i32> reference_;           // final membership
  std::vector<i32> result_;
};

}  // namespace higpu::workloads
