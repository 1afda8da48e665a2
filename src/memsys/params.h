// Timing/geometry parameters for the GPU memory hierarchy.
#pragma once

#include <string>

#include "common/fields.h"
#include "common/types.h"

namespace higpu::memsys {

/// L1 write-hit handling. Write-back keeps dirty lines in the L1 and writes
/// them to the L2 on eviction; write-through forwards every store to the L2
/// immediately (lines are never dirty in L1, so there are no L1 writebacks).
enum class WritePolicy : u8 { kWriteBack, kWriteThrough };
constexpr WritePolicy enum_last(WritePolicy) {
  return WritePolicy::kWriteThrough;
}

/// L1 write-miss handling. Allocate fetches the line into the L1 (through
/// an MSHR entry, like a read miss); no-allocate sends the store straight
/// to the L2 and leaves the L1 untouched.
enum class WriteAlloc : u8 { kAllocate, kNoAllocate };
constexpr WriteAlloc enum_last(WriteAlloc) { return WriteAlloc::kNoAllocate; }

const char* write_policy_name(WritePolicy p);
const char* write_alloc_name(WriteAlloc a);

/// All latencies in core cycles; all sizes in bytes.
struct MemParams {
  // Cache line (memory transaction) size. One coalesced warp access moves
  // one or more lines of this size.
  u32 line_bytes = 128;

  // Per-SM L1 data cache.
  u32 l1_size = 24 * 1024;
  u32 l1_assoc = 4;
  u32 l1_latency = 28;      // hit latency
  u32 l1_mshr_entries = 32; // outstanding misses per SM
  WritePolicy l1_write_policy = WritePolicy::kWriteBack;
  WriteAlloc l1_write_alloc = WriteAlloc::kAllocate;

  // Shared L2.
  u32 l2_size = 1024 * 1024;
  u32 l2_assoc = 8;
  u32 l2_banks = 8;
  u32 l2_latency = 120;     // hit latency (incl. interconnect)
  u32 l2_service = 2;       // bank occupancy per transaction (bandwidth)

  // DRAM: `dram_channels` channels, each with `dram_banks_per_channel`
  // banks holding one open row of `dram_row_bytes`. An access that hits the
  // open row pays `dram_row_hit_latency`; a row switch (precharge +
  // activate + CAS) pays `dram_row_miss_latency`. The bank is occupied for
  // the full access latency (bank-level parallelism); the channel data bus
  // is additionally occupied `dram_service` cycles per line (bandwidth).
  u32 dram_channels = 4;
  u32 dram_banks_per_channel = 4;
  u32 dram_row_bytes = 2048;
  u32 dram_row_hit_latency = 160;
  u32 dram_row_miss_latency = 320;  // load-to-use on a row switch
  u32 dram_service = 4;             // channel-bus occupancy per line

  // Shared memory (per SM).
  u32 smem_banks = 32;
  u32 smem_latency = 24;

  // Atomic operations are resolved at the L2; extra service time per access.
  u32 atomic_extra = 8;

  bool operator==(const MemParams& other) const = default;
};

template <FieldsOf<MemParams> S, class V>
void visit_fields(S& m, V&& v) {
  v("line_bytes", m.line_bytes);
  v("l1_size", m.l1_size);
  v("l1_assoc", m.l1_assoc);
  v("l1_latency", m.l1_latency);
  v("l1_mshr_entries", m.l1_mshr_entries);
  v("l1_write_policy", m.l1_write_policy);
  v("l1_write_alloc", m.l1_write_alloc);
  v("l2_size", m.l2_size);
  v("l2_assoc", m.l2_assoc);
  v("l2_banks", m.l2_banks);
  v("l2_latency", m.l2_latency);
  v("l2_service", m.l2_service);
  v("dram_channels", m.dram_channels);
  v("dram_banks_per_channel", m.dram_banks_per_channel);
  v("dram_row_bytes", m.dram_row_bytes);
  v("dram_row_hit_latency", m.dram_row_hit_latency);
  v("dram_row_miss_latency", m.dram_row_miss_latency);
  v("dram_service", m.dram_service);
  v("smem_banks", m.smem_banks);
  v("smem_latency", m.smem_latency);
  v("atomic_extra", m.atomic_extra);
}

/// Throws std::invalid_argument naming the offending field (zero geometry,
/// rows smaller than a line, row size not a multiple of the line size).
void validate(const MemParams& p);

/// Compact label of the fields that differ from the defaults, for campaign
/// scenario labels: "" for a default config, else e.g. "wt-nwa-mshr4" or
/// "dbk1-row512". Two configs that sweep any --mem-* knob get distinct,
/// stable labels.
std::string mem_label(const MemParams& p);

}  // namespace higpu::memsys
