#include "dist/protocol.h"

#include <algorithm>
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
/// Payload bytes read (and allocated) per step of recv_frame.
constexpr u64 kReadChunk = 1ull << 20;

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

  // The length is only a claim until the bytes arrive: grow the payload one
  // bounded chunk at a time so a lying header followed by EOF costs at most
  // one chunk of memory, not the whole claimed length.
  out->type = static_cast<Msg>(type);
  out->payload.clear();
  while (out->payload.size() < length) {
    const size_t have = out->payload.size();
    const size_t chunk =
        static_cast<size_t>(std::min<u64>(kReadChunk, length - have));
    out->payload.resize(have + chunk);
    try {
      read_all(fd, out->payload.data() + have, chunk, /*eof_ok=*/false);
    } catch (const WireError& e) {
      throw WireError("wire frame payload of " + std::to_string(length) +
                      " bytes broken after " + std::to_string(have) +
                      " bytes: " + e.what());
    }
  }

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
  ckpt::put_fields(w, spec);
}

exp::ScenarioSpec get_spec(ckpt::Reader& r) {
  exp::ScenarioSpec spec;
  ckpt::get_fields<WireError>(r, spec, ckpt::FieldPath{"spec"});
  return spec;
}

u64 campaign_fingerprint(const exp::ScenarioSet& set) {
  ckpt::Writer w;
  w.put64(set.size());
  for (const exp::ScenarioSpec& spec : set) put_spec(w, spec);
  const std::vector<u8>& b = w.blob();
  return ckpt::fnv1a(b.data(), b.size());
}

}  // namespace higpu::dist
