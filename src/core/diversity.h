// Diversity analysis for redundant kernel pairs (paper §IV.B/§IV.C).
//
// Two granularities:
//  * Block level (cheap, always available): for each logical thread block,
//    did the two copies run on different SMs (spatial diversity / permanent
//    CCF immunity) and in disjoint time intervals?
//  * Instruction level (opt-in via the trace sink): the minimum time
//    distance ("temporal slack") between corresponding instruction
//    executions of the two copies — the quantity that decides whether a
//    chip-wide transient (voltage droop) of a given duration can corrupt
//    both copies identically.
#pragma once

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fields.h"
#include "sim/kernel.h"
#include "sim/trace.h"

namespace higpu::core {

/// Block-granularity diversity verdict for one redundant pair.
struct DiversityReport {
  u32 blocks_checked = 0;
  /// Logical blocks whose two copies ran on the same SM (permanent-fault
  /// CCF exposure).
  u32 same_sm = 0;
  /// Logical blocks whose two copies overlapped in time on the same SM.
  u32 same_sm_time_overlap = 0;
  /// Logical blocks whose two copies overlapped in time at all (chip-wide
  /// transient CCF exposure at block granularity).
  u32 time_overlap = 0;

  bool spatially_diverse() const { return same_sm == 0; }
  bool temporally_disjoint() const { return time_overlap == 0; }

  bool operator==(const DiversityReport& other) const = default;
};

template <FieldsOf<DiversityReport> S, class V>
void visit_fields(S& d, V&& v) {
  v("blocks_checked", d.blocks_checked);
  v("same_sm", d.same_sm);
  v("same_sm_time_overlap", d.same_sm_time_overlap);
  v("time_overlap", d.time_overlap);
}

/// Analyze one redundant pair from the GPU's block records.
DiversityReport analyze_block_diversity(const std::vector<sim::BlockRecord>& records,
                                        u32 launch_a, u32 launch_b);

/// Merge helper when a workload launches several redundant pairs.
DiversityReport analyze_block_diversity(const std::vector<sim::BlockRecord>& records,
                                        const std::vector<std::pair<u32, u32>>& pairs);

/// Instruction-level trace collector. Subscribe with
/// gpu.set_trace_sink(&collector) before running; then call
/// slack() for each pair of launches.
class InstrTraceCollector final : public sim::ITraceSink {
 public:
  void record(u32 launch_id, u32 block_linear, u32 warp_in_block, u64 instr_seq,
              u32 sm, Cycle cycle) override;

  /// Summary of temporal slack between corresponding instruction instances.
  struct SlackReport {
    u64 instr_pairs = 0;
    Cycle min_slack = 0;      // min |t_a - t_b|
    double mean_slack = 0.0;
    /// # corresponding instruction pairs closer than `window` cycles —
    /// i.e. exposed to a droop of that duration.
    u64 exposed = 0;
  };
  SlackReport slack(u32 launch_a, u32 launch_b, Cycle window) const;

  /// Search for a droop window [start, end) of width <= max_width such that
  /// the *sets* of instruction instances of the two launches inside the
  /// window are identical. A chip-wide transient in such a window corrupts
  /// both copies identically — the undetectable CCF of §IV.C. Returns
  /// nullopt when no such window exists (what SRRS/HALF guarantee for
  /// widths below their slack).
  std::optional<std::pair<Cycle, Cycle>> find_identical_corruption_window(
      u32 launch_a, u32 launch_b, Cycle max_width) const;

  void clear();
  u64 size() const { return trace_.size(); }

 private:
  struct Key {
    u32 block;
    u32 warp;
    u64 seq;
    bool operator==(const Key& o) const {
      return block == o.block && warp == o.warp && seq == o.seq;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      u64 h = k.block * 0x9E3779B97F4A7C15ull;
      h ^= (static_cast<u64>(k.warp) << 32) + k.seq + (h << 6) + (h >> 2);
      return static_cast<size_t>(h * 0x2545F4914F6CDD1Dull);
    }
  };
  // launch id -> (key -> issue cycle)
  std::unordered_map<u32, std::unordered_map<Key, Cycle, KeyHash>> trace_;
};

}  // namespace higpu::core
