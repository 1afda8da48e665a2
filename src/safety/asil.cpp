#include "safety/asil.h"

#include <algorithm>

namespace higpu::safety {

const char* asil_name(Asil a) {
  switch (a) {
    case Asil::kQM: return "QM";
    case Asil::kA: return "ASIL-A";
    case Asil::kB: return "ASIL-B";
    case Asil::kC: return "ASIL-C";
    case Asil::kD: return "ASIL-D";
  }
  return "?";
}

bool valid_decomposition(Asil goal, Asil x, Asil y, bool independent) {
  if (!independent) return false;
  const Asil lo = std::min(x, y);
  const Asil hi = std::max(x, y);
  switch (goal) {
    case Asil::kD:
      return (hi == Asil::kC && lo == Asil::kA) ||
             (hi == Asil::kB && lo == Asil::kB) ||
             (hi == Asil::kD && lo == Asil::kQM);
    case Asil::kC:
      return (hi == Asil::kB && lo == Asil::kA) ||
             (hi == Asil::kC && lo == Asil::kQM);
    case Asil::kB:
      return (hi == Asil::kA && lo == Asil::kA) ||
             (hi == Asil::kB && lo == Asil::kQM);
    case Asil::kA:
      return hi == Asil::kA && lo == Asil::kQM;
    case Asil::kQM:
      return true;
  }
  return false;
}

Asil composed_asil(Asil x, Asil y, bool independent) {
  if (!independent) return std::max(x, y);
  for (Asil goal : {Asil::kD, Asil::kC, Asil::kB, Asil::kA})
    if (valid_decomposition(goal, x, y, independent)) return goal;
  return std::max(x, y);
}

Asil max_asil_for(const HwMetrics& m) {
  if (m.spfm >= 0.99 && m.lfm >= 0.90) return Asil::kD;
  if (m.spfm >= 0.97 && m.lfm >= 0.80) return Asil::kC;
  if (m.spfm >= 0.90 && m.lfm >= 0.60) return Asil::kB;
  return Asil::kA;
}

HwMetrics required_metrics(Asil a) {
  switch (a) {
    case Asil::kD: return {0.99, 0.90};
    case Asil::kC: return {0.97, 0.80};
    case Asil::kB: return {0.90, 0.60};
    default: return {0.0, 0.0};
  }
}

}  // namespace higpu::safety
