#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "common/jsonl.h"

namespace higpu::obs {

const char* ev_name(Ev kind) {
  switch (kind) {
    case Ev::kWarpStall: return "stall";
    case Ev::kKernel: return "kernel";
    case Ev::kMshrAlloc: return "mshr_alloc";
    case Ev::kMshrFill: return "mshr_fill";
    case Ev::kDramBank: return "dram_bank";
    case Ev::kCheckpoint: return "checkpoint";
    case Ev::kRestore: return "restore";
    case Ev::kRollback: return "rollback";
    case Ev::kReqEnqueue: return "req_enqueue";
    case Ev::kReqServe: return "req_serve";
    case Ev::kReqShed: return "req_shed";
    case Ev::kDegrade: return "degrade";
    case Ev::kCompareFail: return "compare_fail";
    case Ev::kUnitShip: return "unit_ship";
    case Ev::kUnitResult: return "unit_result";
    case Ev::kWorkerDeath: return "worker_death";
  }
  return "?";
}

bool is_span(Ev kind) {
  switch (kind) {
    case Ev::kWarpStall:
    case Ev::kKernel:
    case Ev::kDramBank:
    case Ev::kReqServe:
      return true;
    default:
      return false;
  }
}

const char* stall_cls_name(StallCls cls) {
  switch (cls) {
    case StallCls::kScoreboard: return "scoreboard";
    case StallCls::kBarrier: return "barrier";
    case StallCls::kStructural: return "structural";
  }
  return "?";
}

Tracer::Tracer(u32 ring_capacity)
    : capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

u32 Tracer::track(const std::string& name, u32 pid) {
  for (u32 i = 0; i < tracks_.size(); ++i)
    if (tracks_[i].name == name && tracks_[i].pid == pid) return i;
  Track t;
  t.name = name;
  t.pid = pid;
  t.ring.resize(capacity_);
  tracks_.push_back(std::move(t));
  return static_cast<u32>(tracks_.size() - 1);
}

void Tracer::emit(u32 track_id, Ev kind, u64 ts, u64 dur, u64 a0, u64 a1) {
  // Hot path: one store per simulated stall/miss event. The write slot is
  // the incrementally wrapped head_ (no division), count stays the total.
  Track& t = tracks_.at(track_id);
  TraceEvent& slot = t.ring[t.head];
  if (++t.head == capacity_) t.head = 0;
  if (t.count >= capacity_) dropped_ += 1;
  slot.ts = ts;
  slot.dur = dur;
  slot.a0 = a0;
  slot.a1 = a1;
  slot.kind = kind;
  t.count += 1;
  recorded_ += 1;
}

const std::string& Tracer::track_name(u32 track_id) const {
  return tracks_.at(track_id).name;
}

std::vector<TraceEvent> Tracer::events(u32 track_id) const {
  const Track& t = tracks_.at(track_id);
  const u64 retained = std::min<u64>(t.count, capacity_);
  std::vector<TraceEvent> out;
  out.reserve(static_cast<size_t>(retained));
  // Oldest retained slot is count % capacity_ once the ring has wrapped.
  const u64 first = t.count > capacity_ ? t.count % capacity_ : 0;
  for (u64 i = 0; i < retained; ++i)
    out.push_back(t.ring[(first + i) % capacity_]);
  return out;
}

std::vector<TaggedEvent> Tracer::tail(size_t n) const {
  std::vector<TaggedEvent> all;
  for (u32 tid = 0; tid < tracks_.size(); ++tid)
    for (const TraceEvent& e : events(tid)) all.push_back(TaggedEvent{e, tid});
  // Merge by end time so the flight recorder reads as "what just happened":
  // a span that closed at the mismatch sorts next to the instants around it.
  std::stable_sort(all.begin(), all.end(),
                   [](const TaggedEvent& a, const TaggedEvent& b) {
                     return a.ev.ts + a.ev.dur < b.ev.ts + b.ev.dur;
                   });
  if (all.size() > n) all.erase(all.begin(), all.end() - static_cast<long>(n));
  return all;
}

namespace {

/// Chrome wants ts in microseconds. Device tracks use the raw cycle count
/// as the µs value (the unit label is cosmetic; spans stay proportional);
/// host tracks scale ns down with a fixed 3-digit fraction so nothing
/// rounds away. Both renderings are pure integer formatting — the exported
/// text is deterministic.
void append_ts(std::string& out, const char* key, u64 v, bool is_host_ns) {
  char buf[48];
  if (is_host_ns)
    std::snprintf(buf, sizeof(buf), "\"%s\":%llu.%03llu", key,
                  static_cast<unsigned long long>(v / 1000),
                  static_cast<unsigned long long>(v % 1000));
  else
    std::snprintf(buf, sizeof(buf), "\"%s\":%llu", key,
                  static_cast<unsigned long long>(v));
  out += buf;
}

void append_u64(std::string& out, const char* key, u64 v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\"%s\":%llu", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

std::string event_record(const TraceEvent& e, u32 pid, u32 tid) {
  const bool host = pid == kPidHost;
  std::string r = "{\"name\":\"";
  r += ev_name(e.kind);
  if (e.kind == Ev::kWarpStall && e.a1 <= 2) {
    r += '.';
    r += stall_cls_name(static_cast<StallCls>(e.a1));
  }
  r += "\",\"ph\":\"";
  r += is_span(e.kind) ? 'X' : 'i';
  r += "\",";
  if (!is_span(e.kind)) r += "\"s\":\"t\",";  // instant scope: thread
  append_u64(r, "pid", pid);
  r += ',';
  append_u64(r, "tid", tid);
  r += ',';
  append_ts(r, "ts", e.ts, host);
  if (is_span(e.kind)) {
    r += ',';
    append_ts(r, "dur", e.dur, host);
  }
  r += ",\"args\":{";
  append_u64(r, "a0", e.a0);
  r += ',';
  append_u64(r, "a1", e.a1);
  r += "}}";
  return r;
}

}  // namespace

std::string Tracer::to_chrome_json() const {
  std::string out = "{\"schema\":\"";
  out += kTraceSchema;
  out += "\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto add = [&out, &first](const std::string& rec) {
    if (!first) out += ",\n";
    first = false;
    out += rec;
  };
  add("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"device (cycles)\"}}");
  add("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"host (ns)\"}}");
  for (u32 tid = 0; tid < tracks_.size(); ++tid) {
    const Track& t = tracks_[tid];
    std::string m = "{\"name\":\"thread_name\",\"ph\":\"M\",";
    append_u64(m, "pid", t.pid);
    m += ',';
    append_u64(m, "tid", tid);
    m += ",\"args\":{\"name\":\"" + t.name + "\"}}";
    add(m);
  }
  for (u32 tid = 0; tid < tracks_.size(); ++tid)
    for (const TraceEvent& e : events(tid))
      add(event_record(e, tracks_[tid].pid, tid));
  out += "\n]}\n";
  return out;
}

std::string Tracer::flight_json(size_t n) const {
  std::string out = "{\"schema\":\"";
  out += kFlightSchema;
  out += "\",";
  append_u64(out, "recorded", recorded_);
  out += ',';
  append_u64(out, "dropped", dropped_);
  out += ",\"events\":[";
  bool first = true;
  for (const TaggedEvent& te : tail(n)) {
    if (!first) out += ',';
    first = false;
    out += "{\"track\":\"" + tracks_[te.track].name + "\",\"name\":\"";
    out += ev_name(te.ev.kind);
    out += "\",";
    append_u64(out, "ts", te.ev.ts);
    out += ',';
    append_u64(out, "dur", te.ev.dur);
    out += ',';
    append_u64(out, "a0", te.ev.a0);
    out += ',';
    append_u64(out, "a1", te.ev.a1);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string validate_chrome_trace(const std::string& json) {
  JsonValue root;
  try {
    root = parse_json(json);
  } catch (const JsonError& e) {
    return std::string("not valid JSON: ") + e.what();
  }
  if (root.kind != JsonValue::Kind::kObject) return "top level is not an object";
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || schema->string != kTraceSchema)
    return std::string("missing or wrong schema tag (want ") + kTraceSchema +
           ")";
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray)
    return "traceEvents missing or not an array";

  std::set<std::pair<u64, u64>> named_threads;
  for (size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const std::string at = " (event " + std::to_string(i) + ")";
    if (e.kind != JsonValue::Kind::kObject) return "event is not an object" + at;
    const JsonValue* ph = e.find("ph");
    const JsonValue* name = e.find("name");
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString)
      return "event lacks a ph string" + at;
    if (name == nullptr || name->kind != JsonValue::Kind::kString)
      return "event lacks a name" + at;
    const JsonValue* pid = e.find("pid");
    const JsonValue* tid = e.find("tid");
    if (pid == nullptr || tid == nullptr)
      return "event lacks pid/tid" + at;
    if (ph->string == "M") {
      if (name->string == "thread_name")
        named_threads.emplace(pid->integer, tid->integer);
      continue;
    }
    if (e.find("ts") == nullptr) return "event lacks ts" + at;
    if (ph->string == "X") {
      if (e.find("dur") == nullptr) return "X event lacks dur" + at;
    } else if (ph->string != "i") {
      return "unexpected ph '" + ph->string + "'" + at;
    }
    if (named_threads.find({pid->integer, tid->integer}) ==
        named_threads.end())
      return "event references unnamed track pid=" +
             std::to_string(pid->integer) + " tid=" +
             std::to_string(tid->integer) + at;
  }
  return "";
}

}  // namespace higpu::obs
