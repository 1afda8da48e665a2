// Versioned, deterministic binary snapshot of full device state.
//
// A Snapshot is everything the simulation's future depends on, captured at a
// consistent point: GPU core state (SMs, warps, scheduler, event-engine
// wake/heap bookkeeping), memory-system state (cache tags, MSHRs, DRAM
// bank/row state, global-store contents), the host runtime timeline, the
// kernel-scheduler cursors and any armed fault-injector state. Restoring a
// snapshot — onto the same device or a freshly constructed one with the same
// parameters — resumes execution bit-identically to a run that was never
// interrupted, under both SimEngine::kDense and SimEngine::kEvent.
//
// Three consumers build on this:
//  * rollback recovery  — core::ExecSession restores the last clean
//    checkpoint after a detected miscompare instead of re-executing the
//    whole offload from scratch (RedundancySpec::Recovery::kRollback);
//  * campaign fast-forward — exp::CampaignRunner simulates a fault sweep's
//    shared clean prefix once, snapshots at each injection point, and forks
//    the per-fault runs from the restored state;
//  * divergence diagnosis — per-component section hashes let
//    first_divergence() name the first architecturally divergent component
//    (SM i / L1 set s / DRAM bank b) between two snapshots.
//
// Kernel programs are immutable and shared: launches reference them by
// index into `programs`, which keeps them alive (and shareable across
// threads) for as long as any snapshot does. The index is the program's
// place in the device's program table, so it stays valid for every later
// snapshot of the same device.
//
// Two kinds of state are held beside the blob, as immutable hashed images
// (ckpt::Image) that snapshots share by pointer:
//  * the global store's written pages (`store_pages`), 4 KiB each. They are
//    the store's own pages: a capture takes their pointers and a restore
//    hands them back, and a write after either copies the page it touches;
//  * the launch and block-record history (`launch_images`,
//    `record_images`). A launch stops changing once it finishes and block
//    records are only ever appended, so each is encoded once, into images
//    that seal at a fixed record count.
// The blob keeps the live state. A capture's cost therefore follows the
// state that changed, not the size of the store or the device's uptime.
#pragma once

#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/serial.h"
#include "common/types.h"
#include "isa/program.h"

namespace higpu::ckpt {

/// When a runtime::Device captures checkpoints automatically.
struct CheckpointPolicy {
  enum class Kind : u8 {
    kNone,       // only explicit Device::snapshot() calls
    kInterval,   // during execution, roughly every `interval_cycles` cycles
                 // (at the next event boundary under the event engine)
    kPreKernel,  // at every synchronize() that has pending kernel work,
                 // before any of it executes (the rollback-recovery anchor)
  };
  friend constexpr Kind enum_last(Kind) { return Kind::kPreKernel; }

  Kind kind = Kind::kNone;
  u64 interval_cycles = 0;

  static CheckpointPolicy none() { return {}; }
  /// Throws std::invalid_argument if `cycles` is zero.
  static CheckpointPolicy interval(u64 cycles);
  static CheckpointPolicy pre_kernel() {
    CheckpointPolicy p;
    p.kind = Kind::kPreKernel;
    return p;
  }

  bool active() const { return kind != Kind::kNone; }
  /// Label fragment for scenario identity: "" (none), "ckpt5000", "prekernel".
  std::string label() const;

  bool operator==(const CheckpointPolicy& other) const = default;
};

template <FieldsOf<CheckpointPolicy> S, class V>
void visit_fields(S& p, V&& v) {
  v("kind", p.kind);
  v("interval_cycles", p.interval_cycles);
}

/// Page size of the global store, and the exact length of every store page
/// a Snapshot holds. Page i covers device addresses [i * kStorePageBytes,
/// (i + 1) * kStorePageBytes).
constexpr u64 kStorePageBytes = 4096;
/// Pages in the 32-bit device address space; every page index is below it.
constexpr u64 kStorePages = (u64{1} << 32) / kStorePageBytes;

/// One immutable byte image held beside a snapshot's blob: a global-store
/// page, or a run of launch or block-record history. Never changes once
/// made, so snapshots share it by pointer.
struct Image {
  std::vector<u8> bytes;
  u64 hash = 0;  // hash64(bytes)
};
using ImagePtr = std::shared_ptr<const Image>;

/// Image `bytes`: take them and hash them.
ImagePtr make_image(std::vector<u8> bytes);
/// Image a copy of `len` bytes at `data`.
ImagePtr make_image(const u8* data, size_t len);

/// One written page of a snapshot's global store. A page the store never
/// wrote is absent and reads as zeros.
struct StorePage {
  u32 index = 0;  // device address / kStorePageBytes
  ImagePtr image;
};

/// Throws SnapshotError, naming the fault, unless `pages` is ascending by
/// index without duplicates, every index is below kStorePages and every
/// image is exactly kStorePageBytes long.
void check_store_pages(const std::vector<StorePage>& pages);

class Snapshot {
 public:
  /// Bump on any change to the blob layout.
  /// v2: SmCore serializes the smem_oob_wraps counter (the always-on
  ///     replacement for the NDEBUG-only shared-memory bounds assert).
  /// v3: SmCore serializes the four cycle-attribution counters
  ///     (cycles_issued / cycles_stall_{scoreboard,barrier,structural}).
  /// v4: section hashes are hash64; the "store" section keeps only the
  ///     allocator cursor and store size, the contents move to store_pages.
  /// v5: finished launches and block records move from the "gpu" section
  ///     to launch_images and record_images; launches name their program
  ///     by its index in the device's program table.
  /// v6: store_pages hold only the written pages, each a full page tagged
  ///     with its index; the "store" section's size is the store's extent.
  static constexpr u32 kVersion = 6;
  static constexpr u64 kMagic = 0x48474355434B5054ull;  // "HGPUCKPT"

  // ---- Capture metadata (duplicated from the blob for cheap access) -------
  /// GPU clock at capture. All simulated work at cycles <= this is in the
  /// snapshot; resumed execution continues from here.
  Cycle cycle = 0;
  /// 1-based index of the Device::synchronize() call in progress at capture
  /// (0 = captured outside any synchronize). A forked run resumes by
  /// restoring at the entry of its own synchronize() with the same index.
  u64 sync_seq = 0;
  /// Kernels launched at capture time (launch ids [0, launch_count)).
  u64 launch_count = 0;
  /// Modelled host timeline at capture.
  NanoSec now_ns = 0;
  /// The checkpoint target cycle this capture satisfies (== cycle unless
  /// the event engine stopped between events; then cycle <= target).
  Cycle target = 0;
  /// The global store's extent (memsys::GlobalStore::extent()): its size
  /// as one flat byte array, also saved in the "store" section.
  u64 store_extent = 0;

  // ---- State --------------------------------------------------------------
  std::vector<u8> blob;
  std::vector<Section> sections;
  /// The device's program table: launches name their program by index.
  std::vector<isa::ProgramPtr> programs;
  /// The global store's written pages, ascending by index.
  std::vector<StorePage> store_pages;
  /// The longest prefix of launches that have all finished, encoded
  /// sim::Gpu::kLaunchesPerImage to an image (the last may hold fewer).
  /// Later launches are live state and stay in the blob.
  std::vector<ImagePtr> launch_images;
  /// Every block record, sim::Gpu::kRecordsPerImage to an image (the last
  /// may hold fewer).
  std::vector<ImagePtr> record_images;

  /// Hash over the blob, every store page's index and hash, and every
  /// history image's hash — two snapshots of identical device state hash
  /// identically (the blob layout is padding-free and deterministic, and
  /// every device cuts the same state into the same images).
  u64 hash() const;
  /// Serialized device state in bytes: the blob, the store extent and every
  /// history image. This is the size the state would have as one flat
  /// image, and what a rollback is charged for (PlatformParams::restore_ns).
  u64 size_bytes() const;
};

/// The capture metadata, which a wire frame carries ahead of the section
/// table, the blob, the images and the programs.
template <FieldsOf<Snapshot> S, class V>
void visit_fields(S& s, V&& v) {
  v("cycle", s.cycle);
  v("sync_seq", s.sync_seq);
  v("launch_count", s.launch_count);
  v("now_ns", s.now_ns);
  v("target", s.target);
  v("store_extent", s.store_extent);
}

using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// One sync round of a run: the device state at the entry of a
/// synchronize() with pending kernel work (its pre-kernel anchor) and at its
/// exit, once the GPU drained. Both null when no round was kept.
struct SyncRound {
  SnapshotPtr entry;
  SnapshotPtr exit;
};

/// Name of the first architecturally divergent component between two
/// snapshots of same-shaped devices, scanning architectural state first:
/// SMs ("sm3"), then L1 tag arrays at set granularity ("l1[2] set 17"),
/// the L2 ("l2 set 40"), DRAM banks ("dram bank 5"), global-store contents
/// ("store @0x5100"), then the remaining bookkeeping sections by name.
/// Sections named in `skip` are not compared. Returns "" when the
/// snapshots are identical, and "shape" when their section layouts don't
/// even line up (different device geometry).
std::string first_divergence(const Snapshot& a, const Snapshot& b,
                             std::initializer_list<std::string_view> skip = {});

}  // namespace higpu::ckpt
