#include "dist/protocol.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace higpu::dist {

namespace {

// Frame header/trailer are built with the same little-endian primitives as
// payloads so the wire format is struct-padding-free end to end.
constexpr size_t kHeaderBytes = 4 + 1 + 8;  // magic + type + length

void write_all(int fd, const u8* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the
    // coordinator with SIGPIPE mid-campaign.
    const ssize_t n = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("wire send failed: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
}

/// Read exactly `len` bytes. Returns false on EOF before the first byte
/// when `eof_ok`; EOF mid-read always throws (a torn frame).
bool read_all(int fd, u8* data, size_t len, bool eof_ok) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::read(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("wire read failed: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (done == 0 && eof_ok) return false;
      throw WireError("wire stream ended mid-frame after " +
                      std::to_string(done) + " of " + std::to_string(len) +
                      " bytes");
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

void put_snapshot_opt(ckpt::Writer& w, const ckpt::SnapshotPtr& snap) {
  if (!snap) {
    w.putb(false);
    return;
  }
  w.putb(true);
  const std::vector<u8> framed = ckpt::encode_snapshot(*snap);
  w.put64(framed.size());
  w.put_bytes(framed.data(), framed.size());
}

ckpt::SnapshotPtr get_snapshot_opt(ckpt::Reader& r) {
  if (!r.getb()) return nullptr;
  const u64 n = r.get_count(1, "framed snapshot");
  std::vector<u8> framed(static_cast<size_t>(n));
  r.get_bytes(framed.data(), framed.size());
  // decode_snapshot revalidates the inner frame (checksum, magic, per-
  // section hashes), so snapshot corruption is caught even if the outer
  // frame survived.
  return ckpt::decode_snapshot(framed);
}

}  // namespace

bool known_msg(u8 t) {
  return t >= static_cast<u8>(Msg::kHello) &&
         t <= static_cast<u8>(Msg::kFlight);
}

void send_frame(int fd, Msg type, const std::vector<u8>& payload) {
  ckpt::Writer w;
  w.put32(kFrameMagic);
  w.put8(static_cast<u8>(type));
  w.put64(payload.size());
  w.put_bytes(payload.data(), payload.size());
  w.put64(ckpt::hash64(payload.data(), payload.size()));
  const std::vector<u8>& bytes = w.blob();
  write_all(fd, bytes.data(), bytes.size());
}

bool recv_frame(int fd, Frame* out) {
  std::vector<u8> header(kHeaderBytes);
  if (!read_all(fd, header.data(), header.size(), /*eof_ok=*/true))
    return false;

  ckpt::Reader hr(header, {});
  const u32 magic = hr.get32();
  const u8 type = hr.get8();
  const u64 length = hr.get64();
  if (magic != kFrameMagic)
    throw WireError("wire frame has bad magic 0x" +
                    [&] {
                      char buf[16];
                      std::snprintf(buf, sizeof buf, "%08x", magic);
                      return std::string(buf);
                    }() +
                    " (stream desynchronized or corrupted)");
  if (!known_msg(type))
    throw WireError("wire frame has unknown message type " +
                    std::to_string(type));
  if (length > kMaxPayload)
    throw WireError("wire frame claims implausible payload of " +
                    std::to_string(length) + " bytes");

  out->type = static_cast<Msg>(type);
  out->payload.resize(static_cast<size_t>(length));
  read_all(fd, out->payload.data(), out->payload.size(), /*eof_ok=*/false);

  std::vector<u8> trailer(8);
  read_all(fd, trailer.data(), trailer.size(), /*eof_ok=*/false);
  ckpt::Reader tr(trailer, {});
  const u64 want = tr.get64();
  const u64 got = ckpt::hash64(out->payload.data(), out->payload.size());
  if (want != got)
    throw WireError("wire frame payload checksum mismatch (expected " +
                    std::to_string(want) + ", computed " +
                    std::to_string(got) + ")");
  return true;
}

// ---- ScenarioSpec ----------------------------------------------------------

void put_spec(ckpt::Writer& w, const exp::ScenarioSpec& spec) {
  w.put_string(spec.workload);
  w.put8(static_cast<u8>(spec.scale));
  w.put64(spec.seed);

  const sim::GpuParams& g = spec.gpu;
  w.put8(static_cast<u8>(g.engine));
  w.put8(static_cast<u8>(g.exec_mode));
  w.put8(static_cast<u8>(g.verify));
  w.put32(g.num_sms);
  w.put32(g.warp_size);
  w.put32(g.max_warps_per_sm);
  w.put32(g.max_blocks_per_sm);
  w.put32(g.regfile_per_sm);
  w.put32(g.shared_per_sm);
  w.put32(g.num_warp_schedulers);
  w.put32(g.sp_latency);
  w.put32(g.sfu_latency);
  w.put32(g.sfu_interval);
  w.put32(g.launch_gap_cycles);
  w.putf64(g.clock_ghz);

  const memsys::MemParams& m = g.mem;
  w.put32(m.line_bytes);
  w.put32(m.l1_size);
  w.put32(m.l1_assoc);
  w.put32(m.l1_latency);
  w.put32(m.l1_mshr_entries);
  w.put8(static_cast<u8>(m.l1_write_policy));
  w.put8(static_cast<u8>(m.l1_write_alloc));
  w.put32(m.l2_size);
  w.put32(m.l2_assoc);
  w.put32(m.l2_banks);
  w.put32(m.l2_latency);
  w.put32(m.l2_service);
  w.put32(m.dram_channels);
  w.put32(m.dram_banks_per_channel);
  w.put32(m.dram_row_bytes);
  w.put32(m.dram_row_hit_latency);
  w.put32(m.dram_row_miss_latency);
  w.put32(m.dram_service);
  w.put32(m.smem_banks);
  w.put32(m.smem_latency);
  w.put32(m.atomic_extra);

  const runtime::PlatformParams& p = spec.platform;
  w.putf64(p.pcie_h2d_gbps);
  w.putf64(p.pcie_d2h_gbps);
  w.put64(p.api_call_ns);
  w.put64(p.memcpy_latency_ns);
  w.put64(p.launch_ns);
  w.put64(p.sync_ns);
  w.putf64(p.host_compare_gbps);
  w.putf64(p.host_compute_gbps);
  w.putf64(p.file_parse_gbps);
  w.putf64(p.mem_generate_gbps);
  w.putf64(p.ckpt_restore_gbps);
  w.put64(p.ckpt_restore_latency_ns);

  w.put8(static_cast<u8>(spec.policy));

  const core::RedundancySpec& r = spec.redundancy;
  w.put32(r.n_copies);
  w.put8(static_cast<u8>(r.compare));
  w.putf64(static_cast<double>(r.tolerance));
  w.put_u32_vec(r.srrs_starts);
  w.put8(static_cast<u8>(r.recovery));
  w.put32(r.max_retries);
  w.put64(r.ftti_ns);

  const exp::FaultPlan& f = spec.fault;
  w.put8(static_cast<u8>(f.kind));
  w.put32(f.sm);
  w.put64(f.start);
  w.put64(f.duration);
  w.put32(f.bit);
  w.put32(f.sm_offset);

  w.put8(static_cast<u8>(spec.ckpt.kind));
  w.put64(spec.ckpt.interval_cycles);
}

exp::ScenarioSpec get_spec(ckpt::Reader& r) {
  exp::ScenarioSpec spec;
  spec.workload = r.get_string();
  spec.scale = static_cast<workloads::Scale>(r.get8());
  spec.seed = r.get64();

  sim::GpuParams& g = spec.gpu;
  g.engine = static_cast<sim::SimEngine>(r.get8());
  g.exec_mode = static_cast<sim::ExecMode>(r.get8());
  g.verify = static_cast<sim::LaunchVerify>(r.get8());
  g.num_sms = r.get32();
  g.warp_size = r.get32();
  g.max_warps_per_sm = r.get32();
  g.max_blocks_per_sm = r.get32();
  g.regfile_per_sm = r.get32();
  g.shared_per_sm = r.get32();
  g.num_warp_schedulers = r.get32();
  g.sp_latency = r.get32();
  g.sfu_latency = r.get32();
  g.sfu_interval = r.get32();
  g.launch_gap_cycles = r.get32();
  g.clock_ghz = r.getf64();

  memsys::MemParams& m = g.mem;
  m.line_bytes = r.get32();
  m.l1_size = r.get32();
  m.l1_assoc = r.get32();
  m.l1_latency = r.get32();
  m.l1_mshr_entries = r.get32();
  m.l1_write_policy = static_cast<memsys::WritePolicy>(r.get8());
  m.l1_write_alloc = static_cast<memsys::WriteAlloc>(r.get8());
  m.l2_size = r.get32();
  m.l2_assoc = r.get32();
  m.l2_banks = r.get32();
  m.l2_latency = r.get32();
  m.l2_service = r.get32();
  m.dram_channels = r.get32();
  m.dram_banks_per_channel = r.get32();
  m.dram_row_bytes = r.get32();
  m.dram_row_hit_latency = r.get32();
  m.dram_row_miss_latency = r.get32();
  m.dram_service = r.get32();
  m.smem_banks = r.get32();
  m.smem_latency = r.get32();
  m.atomic_extra = r.get32();

  runtime::PlatformParams& p = spec.platform;
  p.pcie_h2d_gbps = r.getf64();
  p.pcie_d2h_gbps = r.getf64();
  p.api_call_ns = r.get64();
  p.memcpy_latency_ns = r.get64();
  p.launch_ns = r.get64();
  p.sync_ns = r.get64();
  p.host_compare_gbps = r.getf64();
  p.host_compute_gbps = r.getf64();
  p.file_parse_gbps = r.getf64();
  p.mem_generate_gbps = r.getf64();
  p.ckpt_restore_gbps = r.getf64();
  p.ckpt_restore_latency_ns = r.get64();

  spec.policy = static_cast<sched::Policy>(r.get8());

  core::RedundancySpec& red = spec.redundancy;
  red.n_copies = r.get32();
  red.compare = static_cast<core::RedundancySpec::Compare>(r.get8());
  red.tolerance = static_cast<float>(r.getf64());
  red.srrs_starts = r.get_u32_vec();
  red.recovery = static_cast<core::RedundancySpec::Recovery>(r.get8());
  red.max_retries = r.get32();
  red.ftti_ns = r.get64();

  exp::FaultPlan& f = spec.fault;
  f.kind = static_cast<exp::FaultPlan::Kind>(r.get8());
  f.sm = r.get32();
  f.start = r.get64();
  f.duration = r.get64();
  f.bit = r.get32();
  f.sm_offset = r.get32();

  spec.ckpt.kind = static_cast<ckpt::CheckpointPolicy::Kind>(r.get8());
  spec.ckpt.interval_cycles = r.get64();
  return spec;
}

// ---- Work / result payloads ------------------------------------------------

std::vector<u8> encode_work(const WorkItem& item) {
  ckpt::Writer w;
  w.put64(item.unit_id);
  w.put32(item.index);
  put_spec(w, item.spec);
  put_snapshot_opt(w, item.resume);
  put_snapshot_opt(w, item.divergence_ref);
  return w.take_blob();
}

WorkItem decode_work(const std::vector<u8>& payload) {
  ckpt::Reader r(payload, {});
  WorkItem item;
  item.unit_id = r.get64();
  item.index = r.get32();
  item.spec = get_spec(r);
  item.resume = get_snapshot_opt(r);
  item.divergence_ref = get_snapshot_opt(r);
  return item;
}

std::vector<u8> encode_result(const ResultMsg& msg) {
  ckpt::Writer w;
  w.put64(msg.unit_id);
  w.put32(msg.index);
  w.put_string(msg.jsonl);
  return w.take_blob();
}

ResultMsg decode_result(const std::vector<u8>& payload) {
  ckpt::Reader r(payload, {});
  ResultMsg msg;
  msg.unit_id = r.get64();
  msg.index = r.get32();
  msg.jsonl = r.get_string();
  return msg;
}

std::vector<u8> encode_hello(u32 worker_id) {
  ckpt::Writer w;
  w.put32(kProtocolVersion);
  w.put32(worker_id);
  return w.take_blob();
}

u32 decode_hello(const std::vector<u8>& payload) {
  ckpt::Reader r(payload, {});
  const u32 version = r.get32();
  if (version != kProtocolVersion)
    throw WireError("worker speaks higpu.wire/" + std::to_string(version) +
                    ", coordinator expects higpu.wire/" +
                    std::to_string(kProtocolVersion));
  return r.get32();
}

std::vector<u8> encode_log(const LogMsg& msg) {
  ckpt::Writer w;
  w.put32(msg.level);
  w.put_string(msg.line);
  return w.take_blob();
}

LogMsg decode_log(const std::vector<u8>& payload) {
  ckpt::Reader r(payload, {});
  LogMsg msg;
  msg.level = r.get32();
  msg.line = r.get_string();
  return msg;
}

std::vector<u8> encode_flight(const std::string& json) {
  ckpt::Writer w;
  w.put_string(json);
  return w.take_blob();
}

std::string decode_flight(const std::vector<u8>& payload) {
  ckpt::Reader r(payload, {});
  return r.get_string();
}

u64 campaign_fingerprint(const exp::ScenarioSet& set) {
  ckpt::Writer w;
  w.put64(set.size());
  for (const exp::ScenarioSpec& spec : set) put_spec(w, spec);
  const std::vector<u8>& b = w.blob();
  return ckpt::fnv1a(b.data(), b.size());
}

}  // namespace higpu::dist
