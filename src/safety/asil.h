// ISO 26262 ASIL model and decomposition rules (paper §II, Fig. 1).
#pragma once

#include "common/types.h"

namespace higpu::safety {

/// Automotive Safety Integrity Levels. QM = Quality Managed (no safety
/// requirements); D is the most stringent.
enum class Asil { kQM = 0, kA, kB, kC, kD };
constexpr Asil enum_last(Asil) { return Asil::kD; }

const char* asil_name(Asil a);

/// ISO 26262-9 ASIL decomposition: a requirement at `goal` may be decomposed
/// onto two *independent* redundant elements at levels `x` and `y`.
/// Allowed schemes (order of x/y irrelevant):
///   D -> C + A | B + B | D + QM
///   C -> B + A | C + QM
///   B -> A + A | B + QM
///   A -> A + QM
/// Independence (freedom from common-cause faults) is a precondition: the
/// caller asserts it via `independent`; without it no decomposition credit
/// may be taken, which is exactly why the paper needs *diverse* redundancy.
bool valid_decomposition(Asil goal, Asil x, Asil y, bool independent);

/// The ASIL reachable by combining two independent redundant elements
/// ("ASIL addition", Fig. 1 left/middle): A+B -> C, B+B -> D, etc.
/// Returns the highest goal for which valid_decomposition holds.
Asil composed_asil(Asil x, Asil y, bool independent);

/// Fault-Tolerant Time Interval budget: a fault must be detected and the
/// reaction completed within the FTTI for the safety goal to hold.
struct FttiBudget {
  /// Worst-case fault detection latency (redundant execution + readback +
  /// DCLS comparison), in nanoseconds.
  u64 detection_ns = 0;
  /// Worst-case reaction time (e.g. re-execution or transition to degraded
  /// mode), in nanoseconds.
  u64 reaction_ns = 0;
  /// The item's FTTI, in nanoseconds.
  u64 ftti_ns = 0;

  u64 response_ns() const { return detection_ns + reaction_ns; }
  bool met() const { return response_ns() <= ftti_ns; }
  double margin() const {
    return ftti_ns == 0 ? 0.0
                        : 1.0 - static_cast<double>(response_ns()) /
                                    static_cast<double>(ftti_ns);
  }
};

/// Hardware architectural metrics thresholds (ISO 26262-5, Table 4/5).
/// SPFM = single-point fault metric, LFM = latent fault metric.
struct HwMetrics {
  double spfm = 1.0;
  double lfm = 1.0;
};

/// Highest ASIL whose SPFM/LFM targets these metrics meet
/// (D: >=99%/90%, C: >=97%/80%, B: >=90%/60%; A/QM: no quantitative target).
Asil max_asil_for(const HwMetrics& m);

/// Target metrics required for a given ASIL.
HwMetrics required_metrics(Asil a);

}  // namespace higpu::safety
