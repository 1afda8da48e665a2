// b+tree — database index queries (Rodinia): a fixed-depth B+-tree laid out
// in device memory; a point-query kernel descends the tree per thread and a
// range kernel counts keys in an interval. Branchy, latency-bound short
// kernels.
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class BTree final : public Workload {
 public:
  std::string name() const override { return "b+tree"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  static constexpr u32 kFanout = 8;  // children per inner node
  u32 depth_ = 0;                    // inner levels above the leaves
  u32 num_leaves_ = 0;
  u32 num_queries_ = 0;
  // Inner nodes level by level: for each node, kFanout-1 separator keys.
  std::vector<i32> inner_keys_;
  std::vector<i32> leaf_values_;  // one value per leaf
  std::vector<i32> queries_;
  std::vector<i32> range_hi_;     // range query upper bounds
  std::vector<i32> reference_point_;
  std::vector<i32> reference_range_;
  std::vector<i32> result_point_;
  std::vector<i32> result_range_;
};

}  // namespace higpu::workloads
