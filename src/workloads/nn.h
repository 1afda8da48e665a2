// nn — nearest neighbor (Rodinia): one very short kernel computing the
// Euclidean distance of every record to a query point; the host scans for
// the minimum. The canonical "short kernel": end-to-end time is dominated by
// parsing the records database and transferring it.
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class Nn final : public Workload {
 public:
  std::string name() const override { return "nn"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  u32 n_ = 0;
  float query_lat_ = 0.0f;
  float query_lng_ = 0.0f;
  std::vector<float> lat_;
  std::vector<float> lng_;
  std::vector<float> reference_;
  std::vector<float> result_;
};

}  // namespace higpu::workloads
