#include "runtime/device.h"

#include <algorithm>
#include <chrono>

namespace higpu::runtime {

Device::Device(const sim::GpuParams& gpu_params, const PlatformParams& platform)
    : platform_(platform),
      store_(std::make_unique<memsys::GlobalStore>()),
      gpu_(std::make_unique<sim::Gpu>(gpu_params, store_.get())),
      ns_per_cycle_(1.0 / gpu_params.clock_ghz) {
  gpu_->set_checkpoint_hook([this](Cycle nominal, bool is_target) {
    on_gpu_checkpoint(nominal, is_target);
  });
}

void Device::set_tracer(obs::Tracer* t) {
  obs_ = t;
  obs_ckpt_track_ = t != nullptr ? t->track("ckpt", obs::kPidDevice) : 0;
  gpu_->set_obs_tracer(t);
}

DevPtr Device::malloc(u64 bytes) {
  now_ns_ += platform_.api_call_ns;
  return store_->alloc(bytes);
}

void Device::memcpy_h2d(DevPtr dst, const void* src, u64 bytes) {
  now_ns_ += platform_.transfer_ns(bytes, /*h2d=*/true);
  store_->write_block(dst, src, bytes);
}

void Device::memcpy_d2h(void* dst, DevPtr src, u64 bytes) {
  // cudaMemcpy D2H on the default flow implicitly synchronizes first.
  synchronize();
  now_ns_ += platform_.transfer_ns(bytes, /*h2d=*/false);
  store_->read_block(dst, src, bytes);
}

u32 Device::launch(sim::KernelLaunch launch, u32 stream) {
  verify_launch(launch);
  now_ns_ += platform_.launch_ns;
  launch.stream = stream;
  return gpu_->launch(std::move(launch));
}

void Device::verify_launch(const sim::KernelLaunch& launch) {
  if (launch.program == nullptr) return;

  // Memo: one analysis per (program, grid, block) for the Device's
  // lifetime, trace-cache-style — steady-state launches only pay this scan
  // over a handful of distinct kernels. Verification is a pure function of
  // the key (parameters stay symbolic), so replaying the recorded verdict
  // is exact. Each record pins its program (VerifyRecord::program is a
  // shared_ptr): the key is the program's address, which must not be
  // recycled by a later allocation while the verdict is replayable.
  auto same_dim = [](const sim::Dim3& a, const sim::Dim3& b) {
    return a.x == b.x && a.y == b.y && a.z == b.z;
  };
  const isa::verify::Result* result = nullptr;
  for (const VerifyRecord& rec : verify_reports_) {
    if (rec.program == launch.program &&
        same_dim(rec.grid, launch.grid) && same_dim(rec.block, launch.block)) {
      verify_memo_hits_ += 1;
      result = &rec.result;
      break;
    }
  }
  if (result == nullptr) {
    isa::verify::LaunchBounds lb;
    lb.ntid_x = launch.block.x;
    lb.ntid_y = launch.block.y;
    lb.ntid_z = launch.block.z;
    lb.nctaid_x = launch.grid.x;
    lb.nctaid_y = launch.grid.y;
    lb.nctaid_z = launch.grid.z;
    verify_reports_.push_back(VerifyRecord{
        launch.program, launch.grid, launch.block,
        isa::verify::verify(*launch.program, lb)});
    result = &verify_reports_.back().result;
  }
  if (!result->ok())
    throw isa::verify::VerifyError(*result);
}

Cycle Device::synchronize() {
  sync_seq_ += 1;
  const Cycle before = gpu_->now();
  // Pre-kernel checkpoints are captured before any resume restore: a
  // fast-forwarded fork must record the same sync-entry anchor a
  // from-scratch run records (its prefix state here is identical by
  // determinism), not a mid-kernel state teleported in by the resume —
  // otherwise a later rollback would walk different checkpoints and break
  // the fork's bit-identical guarantee.
  ckpt::SnapshotPtr anchor;
  if (ckpt_policy_.kind == ckpt::CheckpointPolicy::Kind::kPreKernel &&
      !gpu_->idle()) {
    anchor = capture(gpu_->now());
    push_checkpoint(anchor, /*anchor=*/true);
  }
  bool resumed = false;
  if (resume_ != nullptr && resume_->sync_seq == sync_seq_) {
    // Campaign fast-forward: this run's prefix up to here is deterministic
    // and identical to the run the snapshot came from; teleport over the
    // already-simulated cycles and continue live from the capture point.
    const ckpt::SnapshotPtr snap = std::move(resume_);
    restore(*snap);  // also restores sync_seq_ == the value just computed
    resumed = true;
  }

  if (!resumed && replays_offered(anchor.get())) {
    // The clean run simulated this very round: take its exit state.
    restore_impl(*offered_.exit, /*restore_fault=*/false,
                 /*restore_host=*/false);
    rounds_replayed_ += 1;
    if (obs_ != nullptr)
      obs_->instant(obs_ckpt_track_, obs::Ev::kRestore, offered_.exit->cycle,
                    sync_seq_, offered_.exit->size_bytes());
  } else {
    const auto wall0 = std::chrono::steady_clock::now();
    gpu_->run_until_idle();
    sim_wall_sec_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
            .count();
    if (keep_round_ && anchor != nullptr)
      last_round_ = {anchor, capture(gpu_->now())};
  }
  const Cycle delta = gpu_->now() - before;
  // Only GPU time not already accounted for extends the wall clock.
  if (gpu_->now() > synced_upto_) {
    const Cycle fresh = gpu_->now() - synced_upto_;
    now_ns_ += static_cast<NanoSec>(static_cast<double>(fresh) * ns_per_cycle_);
    synced_upto_ = gpu_->now();
  }
  now_ns_ += platform_.sync_ns;
  gpu_cycles_ += delta;
  return delta;
}

bool Device::replays_offered(const ckpt::Snapshot* entry) const {
  if (entry == nullptr || offered_.exit == nullptr) return false;
  const sim::IFaultHook* hook = gpu_->fault_hook();
  return (hook == nullptr || hook->inert()) && !gpu_->checkpoint_pending() &&
         gpu_->trace_sink() == nullptr &&
         ckpt::first_divergence(*offered_.entry, *entry, {"host", "fault"})
             .empty();
}

void Device::host_compute(u64 bytes) {
  now_ns_ += platform_.host_compute_ns(bytes);
}

void Device::host_parse(u64 bytes) { now_ns_ += platform_.parse_ns(bytes); }

void Device::host_generate(u64 bytes) { now_ns_ += platform_.generate_ns(bytes); }

void Device::host_compare(u64 bytes) {
  now_ns_ += platform_.compare_ns(bytes);
}

// ---- Checkpoint / restore --------------------------------------------------

void Device::set_checkpoint_policy(const ckpt::CheckpointPolicy& p) {
  ckpt_policy_ = p;
  gpu_->set_checkpoint_interval(
      p.kind == ckpt::CheckpointPolicy::Kind::kInterval ? p.interval_cycles
                                                        : 0);
}

void Device::set_checkpoint_targets(std::vector<Cycle> cycles) {
  std::sort(cycles.begin(), cycles.end());
  cycles.erase(std::unique(cycles.begin(), cycles.end()), cycles.end());
  ckpt_targets_ = cycles;
  target_snaps_.assign(ckpt_targets_.size(), nullptr);
  gpu_->set_checkpoint_targets(std::move(cycles));
}

void Device::on_gpu_checkpoint(Cycle nominal, bool is_target) {
  ckpt::SnapshotPtr snap = capture(nominal);
  if (is_target) {
    const auto it =
        std::lower_bound(ckpt_targets_.begin(), ckpt_targets_.end(), nominal);
    if (it != ckpt_targets_.end() && *it == nominal)
      target_snaps_[static_cast<size_t>(it - ckpt_targets_.begin())] =
          std::move(snap);
  } else {
    push_checkpoint(std::move(snap), /*anchor=*/false);
  }
}

void Device::push_checkpoint(ckpt::SnapshotPtr snap, bool anchor) {
  policy_captures_ += 1;
  checkpoints_.push_back(std::move(snap));
  checkpoint_is_anchor_.push_back(anchor ? 1 : 0);
  if (anchor) return;
  // Interval captures are periodic and each holds its own blob (store pages
  // and sealed history images are shared, the blob is not), so a long run
  // would otherwise accumulate memory proportional to its length.
  // Keep only the most recent few — rollback walks newest to oldest with a
  // small attempt budget — while pre-kernel anchors (one per sync round,
  // bounded by the workload's structure, and the guaranteed-clean fallback)
  // are never evicted.
  u32 intervals = 0;
  for (u8 a : checkpoint_is_anchor_)
    if (!a) ++intervals;
  if (intervals <= kMaxIntervalCheckpoints) return;
  for (size_t i = 0; i < checkpoints_.size(); ++i) {
    if (!checkpoint_is_anchor_[i]) {
      checkpoints_.erase(checkpoints_.begin() + static_cast<long>(i));
      checkpoint_is_anchor_.erase(checkpoint_is_anchor_.begin() +
                                  static_cast<long>(i));
      break;
    }
  }
}

u64 Device::params_fingerprint() const {
  ckpt::Writer w;
  ckpt::put_fields(w, gpu_->params());
  ckpt::put_fields(w, platform_);
  return ckpt::fnv1a(w.blob().data(), w.blob().size());
}

ckpt::SnapshotPtr Device::snapshot() { return capture(gpu_->now()); }

ckpt::SnapshotPtr Device::capture(Cycle nominal) {
  const auto wall0 = std::chrono::steady_clock::now();
  auto snap = std::make_shared<ckpt::Snapshot>();
  ckpt::Writer w;

  w.begin_section("meta");
  w.put64(ckpt::Snapshot::kMagic);
  w.put32(ckpt::Snapshot::kVersion);
  w.put64(params_fingerprint());
  w.end_section();

  w.begin_section("host");
  ckpt::put_fields(w, *this);
  w.end_section();

  w.begin_section("store");
  store_->save(w, *snap);
  w.end_section();

  gpu_->save(w, *snap);

  snap->blob = w.take_blob();
  snap->sections = w.take_sections();
  snap->cycle = gpu_->now();
  snap->sync_seq = sync_seq_;
  snap->launch_count = gpu_->kernel_states().size();
  snap->now_ns = now_ns_;
  snap->target = nominal;
  snapshot_wall_sec_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  if (obs_ != nullptr)
    obs_->instant(obs_ckpt_track_, obs::Ev::kCheckpoint, snap->cycle,
                  snap->sync_seq, snap->size_bytes());
  return snap;
}

void Device::restore(const ckpt::Snapshot& s) {
  restore_impl(s, /*restore_fault=*/true, /*restore_host=*/true);
  if (obs_ != nullptr)
    obs_->instant(obs_ckpt_track_, obs::Ev::kRestore, s.cycle, s.sync_seq,
                  s.size_bytes());
}

void Device::rollback(const ckpt::Snapshot& s) {
  const NanoSec keep_now = now_ns_;
  const Cycle keep_cycles = gpu_cycles_;
  const u64 keep_seq = sync_seq_;
  // The environment is not rolled back: the injector keeps its armed state
  // and cumulative corruption counters (restore_fault = false), and is told
  // the physical disturbance lies in the past (on_rollback).
  restore_impl(s, /*restore_fault=*/false, /*restore_host=*/true);
  now_ns_ = keep_now + platform_.restore_ns(s.size_bytes());
  gpu_cycles_ = keep_cycles;
  sync_seq_ = keep_seq;
  gpu_->notify_rollback();
  if (obs_ != nullptr)
    obs_->instant(obs_ckpt_track_, obs::Ev::kRollback, s.cycle, s.sync_seq,
                  s.size_bytes());
}

void Device::restore_impl(const ckpt::Snapshot& s, bool restore_fault,
                          bool restore_host) {
  const auto wall0 = std::chrono::steady_clock::now();
  ckpt::Reader r(s.blob, s.sections);

  r.enter_section("meta");
  if (r.get64() != ckpt::Snapshot::kMagic)
    throw ckpt::SnapshotError("not a device snapshot (bad magic)");
  const u32 version = r.get32();
  if (version != ckpt::Snapshot::kVersion)
    throw ckpt::SnapshotError("snapshot format v" + std::to_string(version) +
                              " != supported v" +
                              std::to_string(ckpt::Snapshot::kVersion));
  if (r.get64() != params_fingerprint())
    throw ckpt::SnapshotError(
        "snapshot was captured on a device with different GPU/platform "
        "parameters");
  r.leave_section();

  r.enter_section("host");
  if (restore_host)
    ckpt::get_fields(r, *this, ckpt::FieldPath{"host"});
  else
    r.skip_to_section_end();
  r.leave_section();

  r.enter_section("store");
  store_->restore(r, s);
  r.leave_section();

  gpu_->restore(r, s, restore_fault);
  restore_wall_sec_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
}

}  // namespace higpu::runtime
