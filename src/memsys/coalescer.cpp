#include "memsys/coalescer.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace higpu::memsys {

namespace {

void check_lanes(size_t n) {
  if (n > kMaxLanes)
    throw std::invalid_argument("coalescer: " + std::to_string(n) +
                                " addresses exceed one warp");
}

/// Inserts `v` into the sorted, distinct `set[0, n)` unless present;
/// returns the new length. Scans back from the end, so ascending input
/// (the common case) costs one compare per value.
size_t insert_distinct(u64* set, size_t n, u64 v) {
  size_t j = n;
  while (j != 0 && set[j - 1] > v) --j;
  if (j != 0 && set[j - 1] == v) return n;
  for (size_t k = n; k != j; --k) set[k] = set[k - 1];
  set[j] = v;
  return n + 1;
}

}  // namespace

size_t coalesce_into(std::span<const u64> byte_addrs, u32 line_bytes,
                     std::span<u64> lines) {
  check_lanes(byte_addrs.size());
  if (lines.size() < byte_addrs.size())
    throw std::invalid_argument("coalescer: output smaller than input");
  // A lane in the previous lane's line is recognised by one subtraction
  // against that line's first byte (an address below it wraps to a huge
  // offset), so the division runs once per line change, not once per lane.
  size_t n = 0;
  u64 base = 0;
  for (size_t i = 0; i < byte_addrs.size(); ++i) {
    const u64 a = byte_addrs[i];
    if (i != 0 && a - base < line_bytes) continue;
    const u64 line = a / line_bytes;
    base = line * line_bytes;
    n = insert_distinct(lines.data(), n, line);
  }
  return n;
}

u32 smem_conflict_degree(std::span<const u64> byte_addrs, u32 num_banks) {
  check_lanes(byte_addrs.size());
  // Distinct words (broadcast of one word is free).
  u64 words[kMaxLanes];
  size_t n = 0;
  for (u64 a : byte_addrs) n = insert_distinct(words, n, a / 4);
  // Distinct words spanning fewer than num_banks consecutive words all sit
  // in different banks.
  if (n <= 1 || words[n - 1] - words[0] < num_banks) return 1;

  // Otherwise the degree is the longest run of equal banks once sorted.
  u32 banks[kMaxLanes];
  for (size_t i = 0; i < n; ++i)
    banks[i] = static_cast<u32>(words[i] % num_banks);
  std::sort(banks, banks + n);
  u32 worst = 1;
  u32 run = 1;
  for (size_t i = 1; i < n; ++i) {
    run = banks[i] == banks[i - 1] ? run + 1 : 1;
    worst = std::max(worst, run);
  }
  return worst;
}

}  // namespace higpu::memsys
