// higpu.wire/6 — the coordinator <-> worker message protocol.
//
// Transport is any reliable byte stream (the coordinator uses an AF_UNIX
// socketpair shared with each forked worker). Every message is one frame:
//
//   u32  magic      "HGWR" (0x52574748 little-endian on the wire)
//   u8   type       Msg enumerator
//   u64  length     payload bytes that follow
//   ...  payload    type-specific, serialized with ckpt::Writer primitives
//   u64  checksum   ckpt::hash64 over the payload bytes
//
// Frames are self-delimiting and validated on receipt: bad magic, an
// unknown type, an implausible length or a checksum mismatch all throw
// WireError — a corrupted or desynchronized stream is a loud failure,
// never a misinterpreted work unit. A clean EOF (peer exited) is reported
// as its own condition so the coordinator can distinguish "worker died"
// from "worker sent garbage".
//
// Payloads (the records below, fields in visit_fields order):
//   kHello      Hello{version, worker_id} (worker id echoed by the worker)
//   kWork       Work{unit_id, members:[{index, spec}]} — one exp::WorkUnit:
//               a u64 member count, then per member a u32 scenario index
//               and its ScenarioSpec. The worker runs it through
//               exp::run_unit (the group's base run, then each fork), so no
//               snapshot crosses the wire.
//   kResult     Result{unit_id, index, jsonl}: one higpu.campaign.jsonl/1
//               record (the worker's ScenarioResult); one per unit member
//   kHeartbeat  (empty) — liveness, sent periodically by workers
//   kShutdown   (empty) — coordinator tells the worker to exit cleanly
//   kLog        Log{level, line} — one formatted worker log line
//               (common::set_log_sink redirect); journaled as {"log": ...}
//   kFlight     Flight{json} — one "higpu.flight/1" flight-recorder dump
//               (trace tail at a redundancy miscompare or worker failure);
//               journaled as {"flight": ...}
// Integers are little-endian at their width, strings and vectors a u64
// count and then their elements (ckpt::put_field).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/serial.h"
#include "exp/scenario.h"

namespace higpu::dist {

/// v2: the frame checksum is ckpt::hash64 (was FNV-1a).
/// v3: framed snapshots carry launch and block-record history images.
/// v4: kWork carries a whole work unit (indices and specs), no snapshots.
/// v5: a ScenarioSpec's GpuParams no longer carries a launch-verify mode.
/// v6: a ScenarioSpec's GpuParams no longer carries an ALU exec mode.
constexpr u32 kProtocolVersion = 6;
constexpr u32 kFrameMagic = 0x52574748u;  // "HGWR"
/// Upper bound on a frame payload; anything larger means a desynchronized
/// or corrupted stream, not a legitimate message.
constexpr u64 kMaxPayload = 1ull << 32;

enum class Msg : u8 {
  kHello = 1,
  kWork = 2,
  kResult = 3,
  kHeartbeat = 4,
  kShutdown = 5,
  kLog = 6,
  kFlight = 7,
};

/// True when `t` is a Msg enumerator a peer may legally send; recv_frame
/// rejects anything else as a desynchronized stream.
bool known_msg(u8 t);

/// Thrown on a malformed frame or an I/O error mid-frame.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

struct Frame {
  Msg type = Msg::kHeartbeat;
  std::vector<u8> payload;
};

/// Write one frame to `fd` (complete, in order; loops over partial
/// writes, suppresses SIGPIPE). Throws WireError when the peer is gone or
/// the write fails. Callers sharing an fd across threads must serialize.
void send_frame(int fd, Msg type, const std::vector<u8>& payload);

/// Read one frame from `fd`, blocking until it is complete. Returns false
/// on a clean EOF at a frame boundary (peer exited); throws WireError on
/// mid-frame EOF, validation failure or I/O error.
bool recv_frame(int fd, Frame* out);

// ---- Payloads ---------------------------------------------------------------
//
// Each payload is a record whose visit_fields list is its wire layout;
// encode/decode walk it with ckpt::put_fields / get_fields.

/// ScenarioSpec serialization over its visit_fields (ckpt::put_fields), so
/// the worker reconstructs the exact experiment and a scenario runs
/// bit-identically in any process. get_spec throws WireError naming the
/// field (e.g. "spec.gpu.mem.l1_write_policy") for an out-of-range enum byte.
void put_spec(ckpt::Writer& w, const exp::ScenarioSpec& spec);
exp::ScenarioSpec get_spec(ckpt::Reader& r);

/// kHello: the worker's first frame.
struct Hello {
  static constexpr const char* kName = "hello";
  u32 version = kProtocolVersion;
  u32 worker_id = 0;
};

template <FieldsOf<Hello> S, class V>
void visit_fields(S& m, V&& v) {
  v("version", m.version);
  v("worker_id", m.worker_id);
}

/// kWork: one unit of distributed work, the pending members of one
/// exp::WorkUnit.
struct Work {
  static constexpr const char* kName = "work";
  struct Member {
    u32 index = 0;  // position in the campaign's ScenarioSet
    exp::ScenarioSpec spec;
  };
  u64 unit_id = 0;
  std::vector<Member> members;
};

template <FieldsOf<Work::Member> S, class V>
void visit_fields(S& m, V&& v) {
  v("index", m.index);
  v("spec", m.spec);
}

template <FieldsOf<Work> S, class V>
void visit_fields(S& m, V&& v) {
  v("unit_id", m.unit_id);
  v("members", m.members);
}

/// kResult: one member's result.
struct Result {
  static constexpr const char* kName = "result";
  u64 unit_id = 0;
  u32 index = 0;
  std::string jsonl;  // one higpu.campaign.jsonl/1 record
};

template <FieldsOf<Result> S, class V>
void visit_fields(S& m, V&& v) {
  v("unit_id", m.unit_id);
  v("index", m.index);
  v("jsonl", m.jsonl);
}

/// kLog: one redirected worker log line.
struct Log {
  static constexpr const char* kName = "log";
  u32 level = 0;  // LogLevel enumerator value
  std::string line;
};

template <FieldsOf<Log> S, class V>
void visit_fields(S& m, V&& v) {
  v("level", m.level);
  v("line", m.line);
}

/// kFlight: one "higpu.flight/1" JSON dump, shipped verbatim.
struct Flight {
  static constexpr const char* kName = "flight";
  std::string json;
};

template <FieldsOf<Flight> S, class V>
void visit_fields(S& m, V&& v) {
  v("json", m.json);
}

template <FieldRecord T>
std::vector<u8> encode(const T& msg) {
  ckpt::Writer w;
  ckpt::put_fields(w, msg);
  return w.take_blob();
}

/// Inverse of encode. Throws WireError naming the payload and the field
/// ("wire work.members refused: ...") for a truncated payload, a count past the bytes
/// left (before allocating anything from it) or an out-of-range enum byte,
/// and for bytes left over after the last field.
template <FieldRecord T>
T decode(const std::vector<u8>& payload) {
  T msg;
  ckpt::Reader r(payload, {});
  const ckpt::FieldPath root{T::kName};
  visit_fields(msg, [&](const char* name, auto& f,
                        FieldTag = FieldTag::kNone) {
    const ckpt::FieldPath at{name, &root};
    try {
      ckpt::get_field<WireError>(r, f, at);
    } catch (const ckpt::SnapshotError& e) {
      throw WireError("wire " + at.str() + " refused: " + e.what());
    }
  });
  if (r.remaining() != 0)
    throw WireError("wire " + std::string(T::kName) + " payload has " +
                    std::to_string(r.remaining()) +
                    " trailing bytes after its last field");
  return msg;
}

/// Order- and process-independent identity of a campaign: FNV-1a over the
/// serialized bytes of every spec in order. The journal header records it
/// so a resume against a *different* campaign is refused, not merged.
u64 campaign_fingerprint(const exp::ScenarioSet& set);

}  // namespace higpu::dist
