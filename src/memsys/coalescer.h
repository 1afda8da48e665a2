// Warp memory-access coalescing: collapse the active lanes' byte addresses
// into the set of distinct memory transactions (cache lines) they touch.
// Both functions run once per memory instruction and use no heap: inputs
// are warp-sized, so their scratch lives in fixed stack buffers.
#pragma once

#include <cstddef>
#include <span>

#include "common/types.h"

namespace higpu::memsys {

/// Most addresses one call takes: one per lane of a warp.
inline constexpr size_t kMaxLanes = 32;

/// Writes the distinct line addresses (addr / line_bytes) touched by
/// `byte_addrs` to `lines` in ascending order and returns how many there
/// are. `lines` must hold at least `byte_addrs.size()` entries, and
/// `byte_addrs` at most kMaxLanes. A lane in the previous lane's line costs
/// no division, and lines are insertion-sorted from the back, so ascending
/// lanes (the common case) cost one compare per line and no sort.
size_t coalesce_into(std::span<const u64> byte_addrs, u32 line_bytes,
                     std::span<u64> lines);

/// Shared-memory bank-conflict degree for the given word addresses: the
/// maximum number of *distinct words* mapping to any one bank. 1 means
/// conflict-free (broadcast of the same word does not conflict). At most
/// kMaxLanes addresses.
u32 smem_conflict_degree(std::span<const u64> byte_addrs, u32 num_banks);

}  // namespace higpu::memsys
