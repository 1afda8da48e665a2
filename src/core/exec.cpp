#include "core/exec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace higpu::core {

// ---- RedundancySpec --------------------------------------------------------

RedundancySpec RedundancySpec::baseline() {
  RedundancySpec s;
  s.n_copies = 1;
  return s;
}

RedundancySpec RedundancySpec::dcls() { return {}; }

RedundancySpec RedundancySpec::dcls_retry(u32 max_retries, u64 ftti_ns) {
  RedundancySpec s;
  s.recovery = Recovery::kRetry;
  s.max_retries = max_retries;
  s.ftti_ns = ftti_ns;
  return s;
}

RedundancySpec RedundancySpec::dcls_rollback(u32 max_rollbacks, u64 ftti_ns) {
  RedundancySpec s;
  s.recovery = Recovery::kRollback;
  s.max_retries = max_rollbacks;
  s.ftti_ns = ftti_ns;
  return s;
}

RedundancySpec RedundancySpec::nmr(u32 n) {
  RedundancySpec s;
  s.n_copies = n;
  s.compare = Compare::kMajorityVote;
  return s;
}

u32 RedundancySpec::srrs_start_of(u32 c, u32 num_sms) const {
  if (c < srrs_starts.size() && srrs_starts[c] != kAuto) return srrs_starts[c];
  // Even spread around the SM ring; reproduces {0, num_sms/2} at n = 2.
  return (c * num_sms) / n_copies % num_sms;
}

const char* compare_name(RedundancySpec::Compare c) {
  switch (c) {
    case RedundancySpec::Compare::kBitwise: return "bitwise";
    case RedundancySpec::Compare::kMajorityVote: return "vote";
    case RedundancySpec::Compare::kTolerance: return "tol";
  }
  return "?";
}

const char* recovery_name(RedundancySpec::Recovery r) {
  switch (r) {
    case RedundancySpec::Recovery::kNone: return "none";
    case RedundancySpec::Recovery::kRetry: return "retry";
    case RedundancySpec::Recovery::kRollback: return "rollback";
    case RedundancySpec::Recovery::kDegrade: return "degrade";
  }
  return "?";
}

std::string RedundancySpec::label() const {
  std::string l;
  if (n_copies == 1) l = "base";
  else if (n_copies == 2) l = "red";
  else if (n_copies == 3) l = "tmr";
  else l = "nmr" + std::to_string(n_copies);
  if (redundant() && compare != Compare::kBitwise) {
    l += '-';
    l += compare_name(compare);
    if (compare == Compare::kTolerance) {
      // Encode the value so tolerance sweeps yield distinct labels.
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%g", static_cast<double>(tolerance));
      l += buf;
    }
  }
  switch (recovery) {
    case Recovery::kNone: break;
    case Recovery::kRetry: l += "-retry" + std::to_string(max_retries); break;
    case Recovery::kRollback:
      l += "-rollback" + std::to_string(max_retries);
      break;
    case Recovery::kDegrade: l += "-degrade"; break;
  }
  return l;
}

void RedundancySpec::validate(const sim::GpuParams& gpu,
                              sched::Policy policy) const {
  if (n_copies == 0)
    throw std::invalid_argument("RedundancySpec: n_copies must be >= 1");
  if (n_copies > 16)
    throw std::invalid_argument("RedundancySpec: n_copies " +
                                std::to_string(n_copies) +
                                " exceeds the supported maximum of 16");
  if (compare == Compare::kMajorityVote && n_copies < 3)
    throw std::invalid_argument(
        "RedundancySpec: majority vote needs at least 3 copies (use kBitwise "
        "for DCLS pairs)");
  if (compare == Compare::kTolerance &&
      !(tolerance > 0.0f && std::isfinite(tolerance)))
    throw std::invalid_argument(
        "RedundancySpec: kTolerance needs a positive finite tolerance");
  if (compare != Compare::kTolerance && tolerance != 0.0f)
    throw std::invalid_argument(
        "RedundancySpec: tolerance is only meaningful with kTolerance");
  if (srrs_starts.size() > n_copies)
    throw std::invalid_argument(
        "RedundancySpec: more srrs_starts (" +
        std::to_string(srrs_starts.size()) + ") than copies (" +
        std::to_string(n_copies) + ")");
  if ((recovery == Recovery::kRetry || recovery == Recovery::kRollback) &&
      ftti_ns == 0)
    throw std::invalid_argument(
        "RedundancySpec: " +
        std::string(recovery == Recovery::kRetry ? "kRetry" : "kRollback") +
        " needs a non-zero FTTI budget");
  if (redundant() && policy == sched::Policy::kHalf &&
      gpu.num_sms < n_copies)
    throw std::invalid_argument(
        "RedundancySpec: HALF needs at least one SM per copy to partition (" +
        std::to_string(n_copies) + " copies on a " +
        std::to_string(gpu.num_sms) + "-SM GPU)");
  if (redundant() && policy == sched::Policy::kSrrs) {
    std::vector<u32> starts;
    for (u32 c = 0; c < n_copies; ++c) {
      if (c < srrs_starts.size() && srrs_starts[c] != kAuto &&
          srrs_starts[c] >= gpu.num_sms)
        throw std::invalid_argument(
            "RedundancySpec: srrs_starts[" + std::to_string(c) + "] = " +
            std::to_string(srrs_starts[c]) + " outside the " +
            std::to_string(gpu.num_sms) + "-SM GPU");
      starts.push_back(srrs_start_of(c, gpu.num_sms));
    }
    std::sort(starts.begin(), starts.end());
    if (std::adjacent_find(starts.begin(), starts.end()) != starts.end())
      throw std::invalid_argument(
          "RedundancySpec: SRRS start SMs must differ between the copies "
          "(spatial diversity)");
  }
}

safety::Asil RedundancySpec::achieved_asil(sched::Policy policy) const {
  // The COTS GPU is at best an ASIL-B capable element (paper §II).
  const safety::Asil element = safety::Asil::kB;
  if (!redundant()) return element;
  // Independence (freedom from common-cause faults) holds only when the
  // scheduling policy enforces diversity; the default scheduler does not.
  const bool independent = policy != sched::Policy::kDefault;
  return safety::composed_asil(element, element, independent);
}

// ---- ExecSession -----------------------------------------------------------

ExecSession::ExecSession(runtime::Device& dev, Config cfg)
    : dev_(dev), cfg_(std::move(cfg)), num_sms_(dev.gpu().num_sms()) {
  install_scheduler();
  if (cfg_.redundancy.recovery == RedundancySpec::Recovery::kRollback) {
    record_rollback_state_ = true;
    // Rollback needs at least the pre-kernel anchors; an explicitly
    // configured policy (e.g. kInterval) already provides checkpoints and
    // is kept — mid-kernel checkpoints only shrink the re-executed span.
    if (!dev_.checkpoint_policy().active())
      dev_.set_checkpoint_policy(ckpt::CheckpointPolicy::pre_kernel());
  }
}

ReplicaPtr ExecSession::alloc(u64 bytes) {
  ReplicaPtr p;
  p.copy.reserve(copies());
  for (u32 c = 0; c < copies(); ++c) p.copy.push_back(dev_.malloc(bytes));
  return p;
}

void ExecSession::h2d(const ReplicaPtr& dst, const void* src, u64 bytes) {
  for (memsys::DevPtr p : dst.copy) dev_.memcpy_h2d(p, src, bytes);
}

void ExecSession::d2h(void* dst, const ReplicaPtr& src, u64 bytes) {
  dev_.memcpy_d2h(dst, src.primary(), bytes);
}

sim::SchedHints ExecSession::hints_for_copy(u32 c) const {
  sim::SchedHints h;
  const u32 n = copies();
  switch (cfg_.policy) {
    case sched::Policy::kDefault:
      break;  // unconstrained
    case sched::Policy::kHalf: {
      if (n < 2) break;  // baseline: no partition to enforce
      // N-way SM partition (contiguous slices; remainder to the last copy).
      const u32 slice = std::max(1u, num_sms_ / n);
      const u32 lo = std::min(c * slice, num_sms_ - 1);
      const u32 hi =
          (c + 1 == n) ? num_sms_ : std::min((c + 1) * slice, num_sms_);
      h.sm_mask = sched::sm_range_mask(lo, std::max(hi, lo + 1));
      break;
    }
    case sched::Policy::kSrrs:
      h.start_sm = cfg_.redundancy.srrs_start_of(c, num_sms_);
      break;
  }
  return h;
}

void ExecSession::launch(isa::ProgramPtr prog, sim::Dim3 grid, sim::Dim3 block,
                         const std::vector<ReplicaParam>& params,
                         const std::string& tag) {
  const u32 n = copies();
  const std::string base_tag = tag.empty() ? prog->name() : tag;
  std::vector<u32> ids;
  ids.reserve(n);
  for (u32 c = 0; c < n; ++c) {
    sim::KernelLaunch l;
    l.program = prog;
    l.grid = grid;
    l.block = block;
    l.hints = hints_for_copy(c);
    l.tag = base_tag;
    if (c > 0) l.tag += (n == 2) ? "#r" : "#r" + std::to_string(c);
    for (const ReplicaParam& p : params)
      l.params.push_back(p.is_buffer ? p.buf.copy[c] : p.scalar);
    if (record_rollback_state_ && !replaying_)
      recorded_launches_.push_back(RecordedLaunch{l, /*stream=*/c});
    ids.push_back(dev_.launch(std::move(l), /*stream=*/c));
  }
  if (n >= 2) groups_.push_back(std::move(ids));
}

Cycle ExecSession::sync() {
  const Cycle delta = dev_.synchronize();
  kernel_cycles_ += delta;
  return delta;
}

CompareVerdict ExecSession::vote_words(const std::vector<const u8*>& host,
                                       u64 bytes, void* host0) {
  const u32 n = copies();
  const u64 words = bytes / 4;
  const bool voting = cfg_.redundancy.compare ==
                      RedundancySpec::Compare::kMajorityVote;
  const bool tolerant =
      cfg_.redundancy.compare == RedundancySpec::Compare::kTolerance;
  const float eps = cfg_.redundancy.tolerance;

  auto word_of = [&](u32 c, u64 w) {
    u32 v;
    std::memcpy(&v, host[c] + w * 4, 4);
    return v;
  };
  auto within_tol = [&](u32 a_bits, u32 b_bits) {
    const float a = bits2f(a_bits), b = bits2f(b_bits);
    if (std::isnan(a) || std::isnan(b)) return a_bits == b_bits;
    return std::fabs(a - b) <=
           eps * std::max({1.0f, std::fabs(a), std::fabs(b)});
  };

  CompareVerdict v;
  bool all_major = true;
  for (u64 w = 0; w < words; ++w) {
    const u32 ref = word_of(0, w);
    // Cheap dissent scan first: even in a mismatching buffer almost every
    // word agrees, and those words must not pay for majority bookkeeping.
    // Tolerance agreement is not transitive, so that mode checks every
    // pair — two copies straddling the reference by just under eps each
    // disagree with each other even though both "agree" with copy 0.
    bool dissent = false;
    if (tolerant) {
      for (u32 c = 0; c < n && !dissent; ++c)
        for (u32 d = c + 1; d < n && !dissent; ++d)
          dissent = !within_tol(word_of(c, w), word_of(d, w));
    } else {
      for (u32 c = 1; c < n && !dissent; ++c)
        dissent = word_of(c, w) != ref;
    }
    if (!dissent) continue;
    v.dissenting_words += 1;

    if (tolerant) {
      // Tolerance mode: no canonical majority value exists to repair with,
      // so every dissent is detected-but-uncorrectable. For the diagnosis,
      // check whether the non-reference copies agree among themselves — if
      // they do, the dissenting reference copy 0 is the faulty one.
      v.tied_words += 1;
      all_major = false;
      if (v.faulty_copy < 0) {
        bool others_agree = n >= 3;
        for (u32 c = 2; c < n && others_agree; ++c)
          others_agree = within_tol(word_of(1, w), word_of(c, w));
        if (others_agree && !within_tol(ref, word_of(1, w))) {
          v.faulty_copy = 0;
        } else {
          for (u32 c = 1; c < n; ++c)
            if (!within_tol(ref, word_of(c, w))) {
              v.faulty_copy = static_cast<i32>(c);
              break;
            }
        }
      }
      continue;
    }

    // Exact per-word majority vote, only reached on dissent (N is small:
    // count matches per value).
    u32 best_val = ref;
    u32 best_count = 0;
    for (u32 c = 0; c < n; ++c) {
      const u32 val = word_of(c, w);
      u32 count = 0;
      for (u32 d = 0; d < n; ++d)
        if (word_of(d, w) == val) ++count;
      if (count > best_count) {
        best_count = count;
        best_val = val;
      }
    }
    // Identify the dissenter before any repair touches host[0].
    if (v.faulty_copy < 0) {
      for (u32 c = 0; c < n; ++c)
        if (word_of(c, w) != best_val) {
          v.faulty_copy = static_cast<i32>(c);
          break;
        }
    }
    const bool strict_majority = best_count * 2 > n;
    if (!voting || !strict_majority) {
      // Bitwise mode demands unanimity; a vote without a strict majority is
      // detected but uncorrectable either way.
      v.tied_words += 1;
      all_major = false;
    } else if (ref != best_val) {
      // The primary copy was out-voted: repair it in the caller's host
      // buffer. Without a repair destination the majority value would be
      // discarded while the application keeps the wrong primary data, so
      // the word is NOT safe.
      v.primary_dissents += 1;
      if (host0 != nullptr) {
        std::memcpy(static_cast<u8*>(host0) + w * 4, &best_val, 4);
        v.corrected = true;
      } else {
        all_major = false;
      }
    }
  }
  // Trailing bytes (buffers are word-granular in practice): bit-exact only.
  for (u64 b = words * 4; b < bytes; ++b) {
    for (u32 c = 1; c < n; ++c)
      if (host[c][b] != host[0][b]) {
        v.dissenting_words += 1;
        v.tied_words += 1;
        all_major = false;
        if (v.faulty_copy < 0) v.faulty_copy = static_cast<i32>(c);
        break;
      }
  }
  v.unanimous = v.dissenting_words == 0;
  v.majority = all_major;
  return v;
}

CompareVerdict ExecSession::compare(const ReplicaPtr& buf, u64 bytes,
                                    void* host0) {
  if (record_rollback_state_ && !replaying_)
    recorded_compares_.push_back(RecordedCompare{buf, bytes, host0});
  CompareVerdict v;
  if (copies() < 2) {
    v.unanimous = true;
    v.majority = true;
    return v;
  }

  const u32 n = copies();
  scratch_.resize(n);
  std::vector<const u8*> host(n);
  if (host0 != nullptr) {
    host[0] = static_cast<const u8*>(host0);
  } else {
    scratch_[0].resize(bytes);
    dev_.memcpy_d2h(scratch_[0].data(), buf.copy[0], bytes);
    host[0] = scratch_[0].data();
  }
  for (u32 c = 1; c < n; ++c) {
    scratch_[c].resize(bytes);
    dev_.memcpy_d2h(scratch_[c].data(), buf.copy[c], bytes);
    host[c] = scratch_[c].data();
  }
  dev_.host_compare(bytes * (n - 1));
  comparisons_ += 1;

  // Fast path: the unanimous case dominates every fault-free campaign.
  bool identical = true;
  for (u32 c = 1; c < n && identical; ++c)
    identical = std::memcmp(host[0], host[c], bytes) == 0;
  if (identical) {
    v.unanimous = true;
    v.majority = true;
    return v;
  }

  v = vote_words(host, bytes, host0);
  if (v.detected()) {
    detections_ += 1;
    // Flight recorder: a miscompare is the moment the trace tail matters —
    // snapshot it before further execution (retry/rollback) overwrites the
    // rings.
    if (obs::Tracer* t = dev_.tracer(); t != nullptr) {
      t->instant(flight_track(), obs::Ev::kCompareFail,
                 static_cast<u64>(dev_.elapsed_ns()), v.dissenting_words,
                 v.tied_words);
      flight_dumps_.push_back(t->flight_json(kFlightTail));
    }
  }
  if (!(v.unanimous || v.majority)) failures_ += 1;
  if (faulty_copy_ < 0) faulty_copy_ = v.faulty_copy;
  return v;
}

u32 ExecSession::flight_track() {
  if (!flight_track_made_) {
    flight_track_ = dev_.tracer()->track("compare", obs::kPidHost);
    flight_track_made_ = true;
  }
  return flight_track_;
}

void ExecSession::reset_compare_counters() {
  comparisons_ = 0;
  detections_ = 0;
  failures_ = 0;
  faulty_copy_ = -1;
}

void ExecSession::reset_attempt() {
  reset_compare_counters();
  // Fresh scheduler state per attempt, exactly as a fresh session would get.
  install_scheduler();
}

void ExecSession::install_scheduler() {
  dev_.set_kernel_scheduler(cfg_.scheduler_factory
                                ? cfg_.scheduler_factory()
                                : sched::make_scheduler(cfg_.policy));
}

bool ExecSession::rollback_once(const ckpt::Snapshot& snap) {
  // Restore the machine (host timeline keeps advancing; the restore itself
  // is charged), then re-enqueue any launches the restore rolled away —
  // the device's deterministic allocator means their recorded parameter
  // blocks still point at the right buffers.
  dev_.rollback(snap);
  for (size_t i = snap.launch_count; i < recorded_launches_.size(); ++i)
    dev_.launch(recorded_launches_[i].launch, recorded_launches_[i].stream);
  sync();
  // Re-fetch the primary copies into the caller's host buffers and replay
  // every recorded comparison: this is the recovery's own detect step, and
  // it repairs the application-visible data as a side effect.
  reset_compare_counters();
  replaying_ = true;
  for (const RecordedCompare& rc : recorded_compares_) {
    if (rc.host0 != nullptr)
      dev_.memcpy_d2h(rc.host0, rc.buf.primary(), rc.bytes);
    compare(rc.buf, rc.bytes, rc.host0);
  }
  replaying_ = false;
  return all_safe();
}

ExecSession::Report ExecSession::stamped(Report rep, NanoSec start) const {
  rep.total_ns = dev_.elapsed_ns() - start;
  rep.budget.detection_ns = rep.total_ns;
  rep.budget.reaction_ns = 0;  // re-execution is folded into total_ns
  rep.budget.ftti_ns = cfg_.redundancy.ftti_ns;
  return rep;
}

ExecSession::Report ExecSession::run(
    const std::function<void(ExecSession&)>& body,
    const std::function<void(const Report&)>& on_first_attempt) {
  Report rep;
  rep.asil = cfg_.redundancy.achieved_asil(cfg_.policy);
  const NanoSec start = dev_.elapsed_ns();
  const auto first_attempt_done = [&] {
    if (!on_first_attempt) return;
    Report first = rep;
    first.attempts = 1;
    first.success = all_safe();
    on_first_attempt(stamped(first, start));
  };

  if (cfg_.redundancy.recovery == RedundancySpec::Recovery::kRollback) {
    dev_.clear_checkpoints();
    recorded_launches_.clear();
    recorded_compares_.clear();
    reset_attempt();
    rep.attempts = 1;
    body(*this);
    first_attempt_done();
    if (!all_safe()) {
      // Walk the captured checkpoints newest to oldest: the newest one
      // minimizes re-execution; one captured after the corruption fails its
      // re-comparison and the walk falls back to an older, clean one.
      std::vector<ckpt::SnapshotPtr> snaps = dev_.checkpoints();
      for (u32 rb = 0;
           rb < cfg_.redundancy.max_retries && !all_safe() && !snaps.empty();
           ++rb) {
        const ckpt::SnapshotPtr snap = snaps.back();
        snaps.pop_back();
        rep.attempts += 1;
        rollback_once(*snap);
      }
    }
    rep.success = all_safe();
  } else {
    const u32 budgeted_retries =
        cfg_.redundancy.recovery == RedundancySpec::Recovery::kRetry
            ? cfg_.redundancy.max_retries
            : 0;
    for (u32 attempt = 0; attempt <= budgeted_retries; ++attempt) {
      reset_attempt();
      rep.attempts += 1;
      body(*this);
      if (attempt == 0) first_attempt_done();
      if (all_safe()) {
        rep.success = true;
        break;
      }
    }
  }
  if (!rep.success &&
      cfg_.redundancy.recovery == RedundancySpec::Recovery::kDegrade)
    rep.degraded = true;
  return stamped(rep, start);
}

std::vector<std::pair<u32, u32>> ExecSession::pairs() const {
  std::vector<std::pair<u32, u32>> out;
  out.reserve(groups_.size());
  for (const std::vector<u32>& g : groups_)
    if (g.size() >= 2) out.emplace_back(g[0], g[1]);
  return out;
}

std::vector<std::pair<u32, u32>> ExecSession::all_copy_pairs() const {
  std::vector<std::pair<u32, u32>> out;
  for (const std::vector<u32>& g : groups_)
    for (size_t i = 0; i < g.size(); ++i)
      for (size_t j = i + 1; j < g.size(); ++j) out.emplace_back(g[i], g[j]);
  return out;
}

}  // namespace higpu::core
