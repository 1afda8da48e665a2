// higpu.wire/4 — the coordinator <-> worker message protocol.
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
// Payloads:
//   kHello      u32 protocol version, u32 worker id (echoed by the worker)
//   kWork       u64 unit id, u64 member count, then per member a u32
//               scenario index and its ScenarioSpec — one exp::WorkUnit.
//               The worker runs it through exp::run_unit (the group's base
//               run, then each fork), so no snapshot crosses the wire.
//   kResult     u64 unit id, u32 scenario index, one higpu.campaign.jsonl/1
//               record (the worker's ScenarioResult); one per unit member
//   kHeartbeat  (empty) — liveness, sent periodically by workers
//   kShutdown   (empty) — coordinator tells the worker to exit cleanly
//   kLog        u32 level, string line — one formatted worker log line
//               (common::set_log_sink redirect); journaled as {"log": ...}
//   kFlight     string json — one "higpu.flight/1" flight-recorder dump
//               (trace tail at a redundancy miscompare or worker failure);
//               journaled as {"flight": ...}
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
constexpr u32 kProtocolVersion = 4;
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

// ---- Payload serialization -------------------------------------------------

/// ScenarioSpec serialization over its visit_fields (ckpt::put_fields), so
/// the worker reconstructs the exact experiment and a scenario runs
/// bit-identically in any process. get_spec throws WireError naming the
/// field (e.g. "spec.gpu.mem.l1_write_policy") for an out-of-range enum byte.
void put_spec(ckpt::Writer& w, const exp::ScenarioSpec& spec);
exp::ScenarioSpec get_spec(ckpt::Reader& r);

/// One unit of distributed work: the pending members of one exp::WorkUnit.
struct WorkItem {
  u64 unit_id = 0;
  /// Positions in the campaign's ScenarioSet, parallel to `specs`.
  std::vector<u32> indices;
  std::vector<exp::ScenarioSpec> specs;
};

std::vector<u8> encode_work(const WorkItem& item);
/// Throws (naming "unit members") when the member count exceeds what the
/// remaining bytes could hold, before allocating anything from it.
WorkItem decode_work(const std::vector<u8>& payload);

struct ResultMsg {
  u64 unit_id = 0;
  u32 index = 0;
  std::string jsonl;  // one higpu.campaign.jsonl/1 record
};

std::vector<u8> encode_result(const ResultMsg& msg);
ResultMsg decode_result(const std::vector<u8>& payload);

std::vector<u8> encode_hello(u32 worker_id);
u32 decode_hello(const std::vector<u8>& payload);

/// One redirected worker log line (level + the formatted text).
struct LogMsg {
  u32 level = 0;  // LogLevel enumerator value
  std::string line;
};

std::vector<u8> encode_log(const LogMsg& msg);
LogMsg decode_log(const std::vector<u8>& payload);

/// "higpu.flight/1" JSON, shipped verbatim.
std::vector<u8> encode_flight(const std::string& json);
std::string decode_flight(const std::vector<u8>& payload);

/// Order- and process-independent identity of a campaign: FNV-1a over the
/// serialized bytes of every spec in order. The journal header records it
/// so a resume against a *different* campaign is refused, not merged.
u64 campaign_fingerprint(const exp::ScenarioSet& set);

}  // namespace higpu::dist
