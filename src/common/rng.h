// Deterministic, seedable xorshift RNG.
//
// The simulator must be bit-exact reproducible across runs and platforms
// (regression tests assert exact cycle counts), so we never use std::mt19937
// with distribution objects (distributions are implementation-defined) nor
// any global RNG state.
#pragma once

#include "common/types.h"

namespace higpu {

/// xorshift64* generator. Deterministic across platforms.
class Rng {
 public:
  explicit Rng(u64 seed = 0x9E3779B97F4A7C15ull) : state_(seed ? seed : 1) {}

  /// Next raw 64-bit value.
  u64 next_u64() {
    u64 x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545F4914F6CDD1Dull;
  }

  /// Uniform in [0, bound). bound must be > 0.
  u64 next_below(u64 bound) { return next_u64() % bound; }

  /// Uniform float in [0, 1).
  float next_float() {
    return static_cast<float>(next_u64() >> 40) /
           static_cast<float>(1ull << 24);
  }

  /// Uniform float in [lo, hi).
  float next_float(float lo, float hi) { return lo + (hi - lo) * next_float(); }

  /// Bernoulli draw with probability p.
  bool next_bool(float p) { return next_float() < p; }

 private:
  u64 state_;
};

}  // namespace higpu
