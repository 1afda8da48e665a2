// gaussian — Gaussian elimination (Rodinia): for every pivot k, a Fan1
// kernel computes the column of multipliers and a Fan2 kernel updates the
// trailing submatrix (and RHS vector). 2*(n-1) tiny kernel launches: the
// most launch-overhead-dominated workload in the suite.
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class Gaussian final : public Workload {
 public:
  std::string name() const override { return "gaussian"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  u32 n_ = 0;
  std::vector<float> a_;
  std::vector<float> b_;
  std::vector<float> ref_a_;
  std::vector<float> ref_b_;
  std::vector<float> got_a_;
  std::vector<float> got_b_;
};

}  // namespace higpu::workloads
