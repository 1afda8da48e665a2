#include "sim/gpu.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "sim/blockexec.h"

namespace higpu::sim {

Gpu::Gpu(const GpuParams& params, memsys::GlobalStore* store)
    : params_(params),
      store_(store),
      mem_(params.num_sms, params.mem),
      sm_wake_(params.num_sms, kNeverCycle) {
  assert(store != nullptr);
  sms_.reserve(params.num_sms);
  for (u32 i = 0; i < params.num_sms; ++i) {
    sms_.push_back(std::make_unique<SmCore>(i, params_, &mem_, store_));
    sms_.back()->set_block_done_callback(
        [this](const BlockRecord& rec) { on_block_done(rec); });
  }
}

void Gpu::set_kernel_scheduler(std::unique_ptr<IKernelScheduler> sched) {
  ksched_ = std::move(sched);
}

void Gpu::set_fault_hook(IFaultHook* hook) {
  fault_ = hook;
  for (auto& sm : sms_) sm->set_fault_hook(hook);
}

void Gpu::set_trace_sink(ITraceSink* sink) {
  trace_ = sink;
  for (auto& sm : sms_) sm->set_trace_sink(sink);
}

void Gpu::set_obs_tracer(obs::Tracer* t) {
  obs_ = t;
  obs_kernel_track_ = 0;
  if (t != nullptr) {
    obs_kernel_track_ = t->track("kernels", obs::kPidDevice);
    for (u32 i = 0; i < sms_.size(); ++i)
      sms_[i]->set_obs_tracer(t, t->track("sm" + std::to_string(i),
                                          obs::kPidDevice));
  } else {
    for (auto& sm : sms_) sm->set_obs_tracer(nullptr, 0);
  }
  mem_.set_obs_tracer(t);
}

std::vector<obs::SmCycles> Gpu::sm_profile() const {
  std::vector<obs::SmCycles> out;
  out.reserve(sms_.size());
  for (const auto& sm : sms_) out.push_back(sm->cycle_breakdown(cycle_));
  return out;
}

u32 Gpu::launch(KernelLaunch launch) {
  // Always-on launch validation (formerly NDEBUG-masked asserts): these are
  // host-API usage errors, not program defects, so the static verifier
  // cannot prove them away — a release build must refuse them too.
  if (ksched_ == nullptr)
    throw std::invalid_argument("set a kernel scheduler before launching");
  if (launch.program == nullptr)
    throw std::invalid_argument("kernel launch has no program");
  if (launch.total_blocks() == 0 || launch.threads_per_block() == 0)
    throw std::invalid_argument("kernel '" + launch.program->name() +
                                "': empty grid or block");
  if (launch.threads_per_block() >
      params_.max_warps_per_sm * params_.warp_size)
    throw std::invalid_argument("kernel '" + launch.program->name() +
                                "': thread block larger than an SM");
  if (launch.params.size() < launch.program->num_params())
    throw std::invalid_argument(
        "kernel '" + launch.program->name() + "': launch passes " +
        std::to_string(launch.params.size()) + " parameter(s), program "
        "declares " + std::to_string(launch.program->num_params()));

  auto slot = std::make_unique<LaunchSlot>();
  const u32 id = static_cast<u32>(launches_.size());
  slot->program = program_index(launch.program);
  slot->launch = std::move(launch);
  attach_trace(slot->launch);
  slot->state.launch_id = id;
  slot->state.total_blocks = slot->launch.total_blocks();
  last_arrival_ = std::max(cycle_, last_arrival_) + params_.launch_gap_cycles;
  slot->state.arrival = last_arrival_;
  launches_.push_back(std::move(slot));
  state_ptrs_.push_back(&launches_.back()->state);
  stats_.add("kernels_launched");
  return id;
}

bool Gpu::idle() const {
  return kernels_finished_ == launches_.size();
}

void Gpu::attach_trace(KernelLaunch& launch) {
  launch.trace = blockexec::trace_for(launch.program);
  // Compilation statistics come from the (deterministic) trace metadata,
  // counted once per launch — never from cache misses, whose hit pattern
  // depends on what else the process ran and would break run-to-run
  // stat determinism.
  stats_.add("blocks_compiled", launch.trace->num_blocks());
  stats_.add("superops_compiled", launch.trace->num_superops());
  stats_.add("block_fused_runs", launch.trace->num_fused_runs());
  stats_.add("block_static_insns", launch.trace->size());
}

void Gpu::step() {
  // Dense stepping changes SM state behind the event bookkeeping's back;
  // the next run_event entry must rebuild its active set.
  event_primed_ = false;
  cycle_ += 1;
  dispatched_this_cycle_ = false;
  if (ksched_) ksched_->dispatch(*this);
  for (auto& sm : sms_) {
    sm->set_use_wake_records(false);  // faithful dense semantics
    sm->cycle(cycle_);
  }
}

Cycle Gpu::run_until_idle(u64 max_cycles) {
  return params_.engine == SimEngine::kDense ? run_dense(max_cycles)
                                             : run_event(max_cycles);
}

Cycle Gpu::run_dense(u64 max_cycles) {
  const Cycle limit = cycle_ + max_cycles;
  for (auto& sm : sms_) sm->set_use_wake_records(false);
  while (!idle()) {
    // Loop top: all cycles <= cycle_ fully processed — the dense capture
    // point (targets <= cycle_ fire before cycle_ + 1 is simulated).
    maybe_checkpoint(cycle_ + 1);
    if (cycle_ >= limit)
      throw SimTimeout("GPU did not drain within cycle budget (scheduler deadlock?)");
    step();
  }
  return cycle_;
}

Cycle Gpu::next_kernel_arrival() {
  // Arrivals are assigned in monotonically increasing order at launch(), so
  // a cursor over the prefix already visible at cycle_ is exact.
  while (arrival_cursor_ < launches_.size() &&
         launches_[arrival_cursor_]->state.arrival <= cycle_)
    ++arrival_cursor_;
  return arrival_cursor_ < launches_.size()
             ? launches_[arrival_cursor_]->state.arrival
             : kNeverCycle;
}

void Gpu::wake_sm(u32 sm, Cycle when) {
  if (!event_running_ || when >= sm_wake_[sm]) return;
  sm_wake_[sm] = when;
  wake_heap_.push({when, sm});
}

Cycle Gpu::run_event(u64 max_cycles) {
  const Cycle limit = cycle_ + max_cycles;
  event_running_ = true;
  for (auto& sm : sms_) sm->set_use_wake_records(true);
  if (!event_primed_) {
    // (Re)build the active set. Host code may have stepped the GPU densely
    // since the last run, so start every resident SM on the next cycle and
    // let the first ticks establish real wake times. A restored snapshot
    // arrives primed (wake times, heap and dispatch_wake_ deserialized) and
    // skips this, resuming exactly where the captured run left off.
    sm_wake_.assign(num_sms(), kNeverCycle);
    wake_heap_ = {};
    for (u32 i = 0; i < num_sms(); ++i)
      if (!sms_[i]->idle()) wake_sm(i, cycle_ + 1);
    dispatch_wake_ = cycle_ + 1;
    event_primed_ = true;
  }

  while (!idle()) {
    // Earliest future event: dispatch recheck, kernel arrival, SM wake, or
    // fault-window boundary. SMs due on the very next cycle (the common
    // case while work is flowing) bypass the heap entirely; the heap only
    // holds true sleeps.
    Cycle next = std::min(dispatch_wake_, next_kernel_arrival());
    while (!wake_heap_.empty()) {
      const auto [when, sm] = wake_heap_.top();
      if (when != sm_wake_[sm]) {  // stale heap entry
        wake_heap_.pop();
        continue;
      }
      next = std::min(next, when);
      break;
    }
    if (fault_ != nullptr)
      next = std::min(next, fault_->next_trigger_cycle(cycle_));

    // Capture checkpoints the jump to `next` would move past. The clock is
    // still at the last processed event, so the captured state resumes by
    // recomputing this very jump — fast-forward accounting included.
    maybe_checkpoint(next);

    if (next > limit) {
      // The dense loop would have ticked quiescently up to `limit` before
      // throwing; replay its accounting so statistics stay bit-identical.
      for (auto& sm : sms_) sm->settle_to(limit);
      cycle_ = limit;
      event_running_ = false;
      event_primed_ = false;
      throw SimTimeout("GPU did not drain within cycle budget (scheduler deadlock?)");
    }

    ff_cycles_ += next - cycle_ - 1;
    cycle_ = next;
    dispatched_this_cycle_ = false;
    // Dispatch first, exactly as in the dense loop. A dispatch may wake a
    // sleeping SM for this very cycle (wake_sm via try_dispatch_block).
    if (ksched_) ksched_->dispatch(*this);
    bool progress = dispatched_this_cycle_;

    bool any_next_cycle = false;
    for (u32 i = 0; i < num_sms(); ++i) {
      if (sm_wake_[i] > cycle_) continue;
      SmCore& sm = *sms_[i];
      sm.cycle(cycle_);
      if (sm.progressed()) {
        // State changed; other warps (or the scheduler) may act next cycle.
        sm_wake_[i] = cycle_ + 1;
        progress = true;
        any_next_cycle = true;
      } else {
        sm_wake_[i] = sm.next_event_cycle();
        if (sm_wake_[i] != kNeverCycle) wake_heap_.push({sm_wake_[i], i});
      }
    }

    // Any progress (issue, completion, block placement) can change the next
    // dispatch decision, so re-run the kernel scheduler one cycle later.
    // With no progress, only a kernel arrival or an SM wake can unblock it —
    // both are events already in the computation above.
    dispatch_wake_ = (progress || any_next_cycle) ? cycle_ + 1 : kNeverCycle;
  }
  event_running_ = false;
  return cycle_;
}

void Gpu::set_checkpoint_targets(std::vector<Cycle> targets) {
  std::sort(targets.begin(), targets.end());
  ckpt_targets_ = std::move(targets);
  ckpt_target_idx_ = 0;
  // Never capture "in the past": a target below the current clock would
  // yield a snapshot that does not cover it.
  while (ckpt_target_idx_ < ckpt_targets_.size() &&
         ckpt_targets_[ckpt_target_idx_] < cycle_)
    ++ckpt_target_idx_;
}

void Gpu::set_checkpoint_interval(u64 cycles) {
  ckpt_interval_ = cycles;
  if (cycles == 0) {
    ckpt_next_interval_ = kNeverCycle;
    return;
  }
  ckpt_next_interval_ = (cycle_ / cycles + 1) * cycles;
}

void Gpu::maybe_checkpoint(Cycle horizon) {
  if (!ckpt_hook_) return;
  // `horizon` is the next cycle the loop will actually simulate. A target T
  // with T <= horizon fires now, while the clock is still strictly below T
  // (nothing in (now(), T) exists to simulate), so the snapshot predates
  // every possible event at cycles >= T — including a fault window a forked
  // run arms to open exactly at T.
  while (ckpt_target_idx_ < ckpt_targets_.size() &&
         ckpt_targets_[ckpt_target_idx_] <= horizon) {
    ckpt_hook_(ckpt_targets_[ckpt_target_idx_], /*is_target=*/true);
    ++ckpt_target_idx_;
  }
  while (ckpt_interval_ != 0 && ckpt_next_interval_ <= horizon) {
    ckpt_hook_(ckpt_next_interval_, /*is_target=*/false);
    ckpt_next_interval_ += ckpt_interval_;
  }
}

bool Gpu::sm_can_accept(u32 sm, const KernelLaunch& launch) const {
  return sms_[sm]->can_accept(launch);
}

bool Gpu::all_sms_drained() const {
  for (const auto& sm : sms_)
    if (!sm->idle()) return false;
  return true;
}

const KernelLaunch& Gpu::launch_of(u32 launch_id) const {
  return launches_[launch_id]->launch;
}

bool Gpu::stream_ready(const KernelState& ks) const {
  const u32 stream = launches_[ks.launch_id]->launch.stream;
  for (size_t i = first_unfinished_; i < ks.launch_id; ++i)
    if (launches_[i]->launch.stream == stream && !launches_[i]->state.finished())
      return false;
  return true;
}

bool Gpu::try_dispatch_block(KernelState& ks, u32 sm) {
  if (dispatched_this_cycle_) return false;
  if (ks.fully_dispatched()) return false;
  assert(sm < num_sms());

  u32 actual_sm = sm;
  if (fault_ != nullptr)
    actual_sm = fault_->corrupt_block_mapping(sm, num_sms(), cycle_);

  const KernelLaunch& launch = launches_[ks.launch_id]->launch;
  if (!sms_[actual_sm]->can_accept(launch)) return false;

  if (!ks.started()) ks.first_dispatch_cycle = cycle_;
  sms_[actual_sm]->accept_block(launch, ks.launch_id, ks.blocks_dispatched, sm,
                                cycle_);
  if (fault_ != nullptr && actual_sm != sm) fault_->on_block_diverted(sm, actual_sm);
  ks.blocks_dispatched += 1;
  dispatched_this_cycle_ = true;
  // The target SM must simulate this cycle so the new block's warps can
  // start issuing exactly when the dense loop would run them.
  wake_sm(actual_sm, cycle_);
  stats_.add("blocks_dispatched");
  return true;
}

const KernelState& Gpu::kernel_state(u32 launch_id) const {
  return launches_[launch_id]->state;
}

Cycle Gpu::kernel_cycles(u32 launch_id) const {
  const KernelState& ks = launches_[launch_id]->state;
  assert(ks.finished());
  return ks.done_cycle - ks.first_dispatch_cycle;
}

void Gpu::on_block_done(const BlockRecord& rec) {
  records_.push_back(rec);
  KernelState& ks = launches_[rec.launch_id]->state;
  ks.blocks_done += 1;
  if (ks.finished()) {
    ks.done_cycle = cycle_;
    kernels_finished_ += 1;
    while (first_unfinished_ < launches_.size() &&
           launches_[first_unfinished_]->state.finished())
      ++first_unfinished_;
    stats_.add("kernels_completed");
    if (obs_ != nullptr)
      obs_->emit(obs_kernel_track_, obs::Ev::kKernel, ks.first_dispatch_cycle,
                 ks.done_cycle - ks.first_dispatch_cycle, rec.launch_id,
                 ks.total_blocks);
  }
}

namespace {

const std::vector<ckpt::Section> kNoSections;

/// Encode items [done, upto) into `images`, `per_image` to an image, with
/// `put(w, i)` encoding item i. The partial last image, if any, is copied
/// and extended; full images are sealed and shared from then on.
template <class Put>
void append_images(std::vector<ckpt::ImagePtr>& images, u64& done, u64 upto,
                   u64 per_image, const Put& put) {
  while (done < upto) {
    ckpt::Writer w;
    const u64 in_last = done % per_image;
    if (in_last != 0) {
      const std::vector<u8>& last = images.back()->bytes;
      w.put_bytes(last.data(), last.size());
      images.pop_back();
    }
    const u64 end = std::min(upto, done - in_last + per_image);
    for (; done < end; ++done) put(w, done);
    images.push_back(ckpt::make_image(w.take_blob()));
  }
}

/// Leading images `held` and `wanted` share by pointer.
size_t shared_prefix(const std::vector<ckpt::ImagePtr>& held,
                     const std::vector<ckpt::ImagePtr>& wanted) {
  size_t n = 0;
  while (n < held.size() && n < wanted.size() && held[n] == wanted[n]) ++n;
  return n;
}

void check_image_count(const char* kind, size_t i, size_t num_images,
                       u64 count, u64 per_image) {
  const bool last = i + 1 == num_images;
  if (count == 0 || count > per_image || (!last && count != per_image))
    throw ckpt::SnapshotError("snapshot " + std::string(kind) + " " +
                              std::to_string(i) + " holds " +
                              std::to_string(count) + " records, not " +
                              (last ? "1 to " : "") +
                              std::to_string(per_image));
}

}  // namespace

u32 Gpu::program_index(const isa::ProgramPtr& p) {
  const auto [it, added] =
      program_ids_.try_emplace(p.get(), static_cast<u32>(programs_.size()));
  if (added) programs_.push_back(p);
  return it->second;
}

void Gpu::save(ckpt::Writer& w, ckpt::Snapshot& snap) {
  // Launches before first_unfinished_ never change again and block records
  // are only ever appended: image what is new since the last save() or
  // restore() and share the rest. The unfinished launches stay in the blob.
  history_encoded_ += (launches_.size() - launches_imaged_) +
                      (records_.size() - records_imaged_);
  append_images(launch_images_, launches_imaged_, first_unfinished_,
                kLaunchesPerImage, [this](ckpt::Writer& iw, u64 i) {
                  ckpt::put_fields(iw, *launches_[static_cast<size_t>(i)]);
                });
  append_images(record_images_, records_imaged_, records_.size(),
                kRecordsPerImage, [this](ckpt::Writer& iw, u64 i) {
                  ckpt::put_fields(iw, records_[static_cast<size_t>(i)]);
                });
  snap.launch_images = launch_images_;
  snap.record_images = record_images_;
  snap.programs = programs_;

  // The wake heap is not saved: restore() rebuilds it from sm_wake_, one
  // live entry per sleeping SM (stale lazy-deletion entries are semantic
  // no-ops, and dropping them keeps snapshots of identical states
  // byte-identical).
  w.begin_section("gpu");
  ckpt::put_fields(w, *this);
  w.put64(launches_.size());
  for (size_t i = first_unfinished_; i < launches_.size(); ++i)
    ckpt::put_fields(w, *launches_[i]);
  w.put64(records_.size());

  const auto stat_entries = stats_.entries();
  w.put64(stat_entries.size());
  for (const auto& [name, value] : stat_entries) {
    w.put_string(name);
    w.put64(value);
  }
  w.end_section();

  w.begin_section("sched");
  w.put_string(ksched_ ? ksched_->name() : "");
  if (ksched_) ksched_->save_state(w);
  w.end_section();

  for (u32 i = 0; i < num_sms(); ++i) {
    w.begin_section("sm" + std::to_string(i));
    sms_[i]->save(w);
    w.end_section();
  }

  mem_.save(w);

  // The flag says whether hook state follows. A hook that saves none (an
  // observer) is recorded as no hook, so installing one changes no byte.
  ckpt::Writer hook;
  if (fault_ != nullptr) fault_->save_state(hook);
  w.begin_section("fault");
  w.putb(!hook.blob().empty());
  w.put_bytes(hook.blob().data(), hook.blob().size());
  w.end_section();
}

void Gpu::read_launch(ckpt::Reader& r) {
  auto slot = std::make_unique<LaunchSlot>();
  ckpt::get_fields(r, *slot, ckpt::FieldPath{"launch"});
  if (slot->program >= programs_.size())
    throw ckpt::SnapshotError("snapshot launch names program " +
                              std::to_string(slot->program) + " of " +
                              std::to_string(programs_.size()));
  KernelLaunch& l = slot->launch;
  l.program = programs_[slot->program];
  // Traces are derived state: rebuilt (via the process-wide cache), not
  // deserialized. The compile-time stats ride in the stats_ snapshot, so
  // no attach_trace() accounting here. Must happen before the SMs are
  // restored — they re-derive warp.ctrace from the launch.
  l.trace = blockexec::trace_for(l.program);
  const KernelState& ks = slot->state;
  if (ks.launch_id != launches_.size())
    throw ckpt::SnapshotError("snapshot launch " +
                              std::to_string(launches_.size()) +
                              " carries launch id " +
                              std::to_string(ks.launch_id));
  launches_.push_back(std::move(slot));
  state_ptrs_.push_back(&launches_.back()->state);
}

void Gpu::restore_launches(ckpt::Reader& r,
                           const std::vector<ckpt::ImagePtr>& images,
                           u64 n_launches) {
  // Images this device already holds describe launches it still has,
  // finished and unchanged: keep those slots and decode only the rest.
  const size_t shared = shared_prefix(launch_images_, images);
  const size_t kept = static_cast<size_t>(
      std::min<u64>(shared * kLaunchesPerImage, launches_imaged_));
  launches_.resize(kept);
  state_ptrs_.resize(kept);
  for (size_t i = shared; i < images.size(); ++i) {
    const std::vector<u8>& bytes = images[i]->bytes;
    ckpt::Reader ir(bytes, kNoSections);
    u64 count = 0;
    for (; ir.remaining() > 0 && count < kLaunchesPerImage; ++count) {
      read_launch(ir);
      if (!launches_.back()->state.finished())
        throw ckpt::SnapshotError("snapshot launch image " + std::to_string(i) +
                                  " holds an unfinished launch");
    }
    if (ir.remaining() > 0) count = kLaunchesPerImage + 1;
    check_image_count("launch image", i, images.size(), count,
                      kLaunchesPerImage);
  }
  const size_t frozen = launches_.size();
  if (frozen > n_launches)
    throw ckpt::SnapshotError("snapshot launch images hold " +
                              std::to_string(frozen) + " launches of " +
                              std::to_string(n_launches));
  for (u64 i = frozen; i < n_launches; ++i) read_launch(r);
  // Every device images exactly the finished prefix; anything else is not
  // a snapshot this format produces.
  if (frozen < launches_.size() && launches_[frozen]->state.finished())
    throw ckpt::SnapshotError("snapshot launch " + std::to_string(frozen) +
                              " finished but is not in the launch images");
  launch_images_ = images;
  launches_imaged_ = frozen;
  first_unfinished_ = frozen;
}

void Gpu::restore_records(const std::vector<ckpt::ImagePtr>& images,
                          u64 n_records) {
  const size_t shared = shared_prefix(record_images_, images);
  records_.resize(static_cast<size_t>(
      std::min<u64>(shared * kRecordsPerImage, records_imaged_)));
  for (size_t i = shared; i < images.size(); ++i) {
    ckpt::Reader ir(images[i]->bytes, kNoSections);
    u64 count = 0;
    try {
      for (; ir.remaining() > 0 && count < kRecordsPerImage; ++count)
        ckpt::get_fields(ir, records_.emplace_back());
    } catch (const ckpt::SnapshotError& e) {
      throw ckpt::SnapshotError("snapshot block-record image " +
                                std::to_string(i) + ": " + e.what());
    }
    if (ir.remaining() > 0) count = kRecordsPerImage + 1;
    check_image_count("block-record image", i, images.size(), count,
                      kRecordsPerImage);
  }
  if (records_.size() != n_records)
    throw ckpt::SnapshotError("snapshot record images hold " +
                              std::to_string(records_.size()) +
                              " block records, its gpu section counts " +
                              std::to_string(n_records));
  record_images_ = images;
  records_imaged_ = n_records;
}

void Gpu::restore(ckpt::Reader& r, const ckpt::Snapshot& snap,
                  bool restore_fault) {
  programs_ = snap.programs;
  program_ids_.clear();
  for (u32 i = 0; i < programs_.size(); ++i)
    program_ids_.try_emplace(programs_[i].get(), i);

  r.enter_section("gpu");
  ckpt::get_fields(r, *this, ckpt::FieldPath{"gpu"});
  if (sm_wake_.size() != sms_.size())
    throw ckpt::SnapshotError("snapshot SM count mismatch");
  // Rebuild the heap from the normalized wake times. Pop order is a strict
  // (cycle, sm) order regardless of the heap's internal layout, so this is
  // behaviourally identical to the captured heap minus its stale entries.
  wake_heap_ = {};
  for (u32 i = 0; i < sm_wake_.size(); ++i)
    if (sm_wake_[i] != kNeverCycle) wake_heap_.push({sm_wake_[i], i});

  restore_launches(r, snap.launch_images, r.get64());
  restore_records(snap.record_images, r.get64());

  stats_ = StatSet{};
  const u64 n_stats = r.get64();
  for (u64 i = 0; i < n_stats; ++i) {
    const std::string name = r.get_string();
    stats_.set(name, r.get64());
  }
  r.leave_section();

  r.enter_section("sched");
  const std::string sched_name = r.get_string();
  if ((ksched_ ? ksched_->name() : "") != sched_name)
    throw ckpt::SnapshotError(
        "snapshot kernel scheduler mismatch: captured '" + sched_name +
        "', installed '" + (ksched_ ? ksched_->name() : "") + "'");
  if (ksched_) ksched_->restore_state(r);
  r.leave_section();

  const auto launch_of = [this](u32 id) -> const KernelLaunch* {
    return id < launches_.size() ? &launches_[id]->launch : nullptr;
  };
  for (u32 i = 0; i < num_sms(); ++i) {
    r.enter_section("sm" + std::to_string(i));
    sms_[i]->restore(r, launch_of);
    r.leave_section();
  }

  mem_.restore(r);

  r.enter_section("fault");
  const bool had_fault = r.getb();
  if (had_fault && restore_fault && fault_ != nullptr)
    fault_->restore_state(r);
  else
    // Either no hook is installed now, or a rollback restore deliberately
    // leaves the environment un-rewound: drop the serialized hook state.
    r.skip_to_section_end();
  r.leave_section();

  // A restored run arms its own capture triggers; never fire for points the
  // restored clock has already passed.
  std::vector<Cycle> targets = std::move(ckpt_targets_);
  set_checkpoint_targets(std::move(targets));
  set_checkpoint_interval(ckpt_interval_);
}

StatSet Gpu::collect_stats() const {
  StatSet all = stats_;
  all.merge(mem_.stats());
  for (const auto& sm : sms_) all.merge(sm->snapshot_stats());
  all.set("cycles", cycle_);
  return all;
}

}  // namespace higpu::sim
