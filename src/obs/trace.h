// obs::Tracer — deterministic structured tracing on the simulated timebase.
//
// One Tracer instance records typed events into fixed-capacity per-track
// ring buffers (one track per SM / memory component / tenant / worker).
// Components reach their tracer through a raw pointer that is nullptr when
// tracing is off, so the disabled cost is a single branch and the enabled
// path never allocates after track creation: an emit is a bounds-free store
// into a preallocated ring slot.
//
// Determinism contract: the tracer is an *observer*. It reads the cycle /
// elapsed_ns values the simulation already computed and writes only into
// its own buffers, so results are bit-identical with tracing on or off
// (pinned by tests/trace_identity_test.cpp across both engines).
//
// Two timebases share one trace, separated by Chrome process id:
//   pid 0 — device:  ts is the simulated GPU cycle.
//   pid 1 — host:    ts is the modelled (or, for dist, monotonic) ns.
//
// Export is Chrome trace-event JSON tagged "higpu.trace/1" — loadable in
// Perfetto / chrome://tracing. Spans are "X" (complete) events; everything
// else is an "i" (instant). The last-N events across all tracks, merged by
// timestamp, form the flight-recorder dump ("higpu.flight/1") shipped on
// redundancy-compare mismatches and worker death.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace higpu::obs {

constexpr const char* kTraceSchema = "higpu.trace/1";
constexpr const char* kFlightSchema = "higpu.flight/1";

/// Device-timebase tracks use this Chrome pid; host-timebase tracks pid 1.
constexpr u32 kPidDevice = 0;
constexpr u32 kPidHost = 1;

/// Typed event kinds. The wire/JSON name of each kind is ev_name(); spans
/// (is_span()) carry a duration, instants do not.
enum class Ev : u16 {
  // Device timebase (ts = cycle).
  kWarpStall = 1,  // span: one stall episode. a0 = warp slot, a1 = StallCls
  kKernel,         // span: launch -> drain.  a0 = launch id
  kMshrAlloc,      // instant: miss tracked.  a0 = line, a1 = fill cycle
  kMshrFill,       // instant: line filled.   a0 = line
  kDramBank,       // span: bank busy.        a0 = bank index, a1 = row
  // The three snapshot instants share one layout: ts = the snapshot's
  // cycle, a0 = the device's sync_seq, a1 = the snapshot's size in bytes.
  kCheckpoint,     // instant: snapshot captured.
  kRestore,        // instant: snapshot restored, or a sync round replayed
                   // (the round's exit state restored).
  kRollback,       // instant: rollback recovery.
  // Host timebase (ts = ns).
  kReqEnqueue,     // instant: a0 = request id, a1 = queue depth after
  kReqServe,       // span: dispatch -> completion. a0 = request id
  kReqShed,        // instant: a0 = request id, a1 = 0 expired / 1 overflow
  kDegrade,        // instant: ladder move. a0 = from level, a1 = to level
  kCompareFail,    // instant: redundancy miscompare. a0 = dissenting words
  kUnitShip,       // instant: a0 = unit id, a1 = member count
  kUnitResult,     // instant: a0 = unit id, a1 = scenario index
  kWorkerDeath,    // instant: a0 = worker id
};

/// Stall classes carried in kWarpStall.a1 (mirrors the SM issue outcomes).
enum class StallCls : u8 { kScoreboard = 0, kBarrier = 1, kStructural = 2 };

const char* ev_name(Ev kind);
bool is_span(Ev kind);
const char* stall_cls_name(StallCls cls);

/// One recorded event. POD; rings hold these by value.
struct TraceEvent {
  u64 ts = 0;   // cycle (pid 0 tracks) or ns (pid 1 tracks)
  u64 dur = 0;  // span length; 0 for instants
  u64 a0 = 0;
  u64 a1 = 0;
  Ev kind = Ev::kWarpStall;
};

/// A flight-recorder entry: an event plus its originating track.
struct TaggedEvent {
  TraceEvent ev;
  u32 track = 0;
};

class Tracer {
 public:
  /// `ring_capacity` events are retained per track; older events are
  /// overwritten (and counted in events_dropped()).
  explicit Tracer(u32 ring_capacity = 4096);

  /// Get-or-create the track named `name` under Chrome process `pid`.
  /// Track ids are dense and stable for the Tracer's lifetime. Idempotent:
  /// re-registering an existing (name, pid) returns the same id.
  u32 track(const std::string& name, u32 pid);

  /// Record one event. `track_id` must come from track().
  void emit(u32 track_id, Ev kind, u64 ts, u64 dur, u64 a0 = 0, u64 a1 = 0);
  void instant(u32 track_id, Ev kind, u64 ts, u64 a0 = 0, u64 a1 = 0) {
    emit(track_id, kind, ts, 0, a0, a1);
  }

  u32 ring_capacity() const { return capacity_; }
  size_t num_tracks() const { return tracks_.size(); }
  const std::string& track_name(u32 track_id) const;
  /// Total events emitted, including ones the ring has since overwritten.
  u64 events_recorded() const { return recorded_; }
  /// Events lost to ring wrap-around.
  u64 events_dropped() const { return dropped_; }

  /// Events currently retained on `track_id`, oldest first.
  std::vector<TraceEvent> events(u32 track_id) const;

  /// The last `n` retained events across all tracks, merged oldest-first by
  /// (ts, track, emit order). This is the flight-recorder view.
  std::vector<TaggedEvent> tail(size_t n) const;

  /// Chrome trace-event JSON for the whole trace ("higpu.trace/1"): one
  /// metadata thread_name record per track, then every retained event.
  std::string to_chrome_json() const;

  /// Compact "higpu.flight/1" JSON object holding tail(n) — the payload
  /// dumped on a redundancy miscompare and shipped on worker death.
  std::string flight_json(size_t n) const;

 private:
  struct Track {
    std::string name;
    u32 pid = kPidDevice;
    std::vector<TraceEvent> ring;  // capacity_ slots, preallocated
    u32 head = 0;                  // next write slot (== count % capacity)
    u64 count = 0;                 // total emitted on this track
  };

  u32 capacity_;
  std::vector<Track> tracks_;
  u64 recorded_ = 0;
  u64 dropped_ = 0;
};

/// Validate `json` against the higpu.trace/1 schema: parses it, checks the
/// schema tag, the traceEvents array, per-event required fields (name, ph,
/// pid, tid, ts; dur on "X" events) and that every (pid, tid) referenced by
/// an event has a thread_name metadata record. Returns "" when valid, else
/// a one-line description of the first problem.
std::string validate_chrome_trace(const std::string& json);

}  // namespace higpu::obs
