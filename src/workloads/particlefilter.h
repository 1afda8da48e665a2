// particlefilter — object tracking with a particle filter (Rodinia): per
// video frame, a GPU likelihood kernel evaluates every particle against the
// frame, then the host normalizes weights and resamples. Short kernels
// interleaved with host phases.
#pragma once

#include "workloads/workload.h"

namespace higpu::workloads {

class ParticleFilter final : public Workload {
 public:
  std::string name() const override { return "particlefilter"; }
  void setup(Scale scale, u64 seed) override;
  void run(RunContext& ctx) override;
  bool verify() const override;

 private:
  static constexpr u32 kSamples = 16;  // sample offsets per particle
  u32 particles_ = 0;
  u32 frames_ = 0;
  u32 frame_dim_ = 0;
  std::vector<float> frames_data_;  // frames x dim x dim
  std::vector<i32> offsets_;        // kSamples (dx,dy) pairs -> 2*kSamples
  std::vector<float> reference_;    // final particle weights
  std::vector<float> result_;
  std::vector<float> lik_;          // last frame's fetched likelihoods
                                    // (compare() host destination; must
                                    // outlive run() for rollback recovery)
  // Deterministic particle positions per frame (host-side motion model).
  std::vector<i32> positions_;  // particles x 2
};

}  // namespace higpu::workloads
