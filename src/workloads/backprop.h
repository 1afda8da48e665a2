// backprop — neural-network training step (Rodinia): a layer-forward kernel
// computing per-block partial sums of input*weight via a shared-memory tree
// reduction, and a weight-adjustment kernel. Both kernels are very short but
// launch many blocks ("short kernels requiring more than half of the
// resources" — the case where SRRS beats HALF in Fig. 4).
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class Backprop final : public Workload {
 public:
  std::string name() const override { return "backprop"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  static constexpr u32 kHidden = 16;  // hidden units (one block column each)
  u32 n_in_ = 0;
  std::vector<float> input_;
  std::vector<float> weights_;     // n_in x kHidden
  std::vector<float> delta_;       // kHidden (host-computed output error)
  std::vector<float> ref_partial_;  // (n_in/16) x kHidden
  std::vector<float> ref_weights_;
  std::vector<float> got_partial_;
  std::vector<float> got_weights_;
};

}  // namespace higpu::workloads
