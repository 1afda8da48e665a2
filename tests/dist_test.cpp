// Distributed campaign service tests.
//
// The headline pin is the determinism contract: dist::run_distributed
// produces results bit-identical (ScenarioResult::deterministic_fields_equal)
// to CampaignRunner jobs=1 at any worker count, under work stealing, across
// a worker SIGKILL mid-campaign (also inside a multi-member unit, one
// spanning two recovery strategies too), and across a simulated
// coordinator crash plus journal resume; the journal holds one flight
// record per miscompare of a simulated run. Around it: the
// higpu.wire/6 frame and payload codecs (corruption is loud, never
// misinterpreted; a lying length or member count allocates nothing; every
// payload kind cut at any byte or padded is a WireError; the payload bytes
// are pinned),
// wire-framed snapshot round-trips with per-section integrity (a corrupted
// section is named), JSONL result round-trips including control characters
// in error strings, journal scan/resume semantics (torn tails tolerated,
// corrupted records named, foreign campaigns refused, only missing
// scenarios re-executed, the fleet line of older journals skipped), a group
// unit run in a fresh campaign_worker process through its file mode, and a
// parameter-mismatched snapshot refused cleanly.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "ckpt/wire.h"
#include "common/jsonl.h"
#include "dist/coordinator.h"
#include "dist/journal.h"
#include "dist/protocol.h"
#include "exp/campaign.h"
#include "exp/result_io.h"
#include "exp/units.h"
#include "obs/trace.h"
#include "runtime/device.h"

namespace higpu {
namespace {

using exp::FaultPlan;
using exp::ScenarioResult;
using exp::ScenarioSet;
using exp::ScenarioSpec;
using exp::SnapshotIo;

ScenarioSpec test_spec(const std::string& workload) {
  ScenarioSpec s;
  s.workload = workload;
  s.scale = workloads::Scale::kTest;
  return s;
}

/// A small campaign that exercises every dispatch shape: fault-free
/// singletons, and a fault group (clean member + four faults) that
/// ships as one unit whose worker forks the transient from a shared base
/// run and answers the three quiet droops from the base result: two open
/// inside idle stretches of the clean run (cycles 1-3000 before the first
/// kernel, 3729-6000 between kernels), and one after it has drained.
ScenarioSet mixed_set() {
  ScenarioSet set = ScenarioSet::of(test_spec("hotspot"))
                        .sweep_faults({FaultPlan::none(),
                                       FaultPlan::droop(2000, 50, 2),
                                       FaultPlan::transient_sm(1, 3000, 40, 3),
                                       FaultPlan::droop(1u << 30, 50, 4),
                                       FaultPlan::droop(4500, 200, 6)});
  set.add(test_spec("pathfinder"));
  set.add(test_spec("nw"));
  return set;
}

exp::CampaignResult golden_jobs1(const ScenarioSet& set) {
  exp::CampaignRunner::Config cfg;
  cfg.jobs = 1;
  return exp::CampaignRunner(cfg).run(set);
}

void expect_equals_golden(const exp::CampaignResult& got,
                          const exp::CampaignResult& golden) {
  ASSERT_EQ(got.results.size(), golden.results.size());
  for (size_t i = 0; i < golden.results.size(); ++i)
    EXPECT_TRUE(
        got.results[i].deterministic_fields_equal(golden.results[i]))
        << "scenario " << i << " (" << golden.results[i].label
        << ") differs from the jobs=1 golden";
}

std::string tmp_path(const std::string& stem) {
  return "/tmp/higpu_dist_test_" + std::to_string(::getpid()) + "_" + stem;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// ---- Field walking -----------------------------------------------------------

/// One leaf (non-record) field reached through visit_fields.
struct Leaf {
  std::string path;  // dotted, e.g. "gpu.mem.l1_write_policy"
  FieldTag tag = FieldTag::kNone;
  u32 enum_count = 0;  // enumerators of an enum field, else 0
};

template <class T>
concept RecordVector = requires { typename T::value_type; } &&
                       std::same_as<T, std::vector<typename T::value_type>> &&
                       FieldRecord<typename T::value_type>;

/// Change a field to a different value of its type.
template <class F>
void mutate(F& f) {
  if constexpr (std::is_enum_v<F>)
    f = static_cast<F>((static_cast<u32>(f) + 1) %
                       (static_cast<u32>(enum_last(F{})) + 1));
  else if constexpr (std::is_same_v<F, bool>) f = !f;
  // Doubling keeps power-of-two geometry valid for Device construction.
  else if constexpr (std::is_arithmetic_v<F>) f = f == 0 ? F{1} : F(f * 2);
  else if constexpr (std::is_same_v<F, std::string>) f += "~";
  else if constexpr (std::is_same_v<F, StatSet>) f.add("mutated");
  else f.emplace_back();  // u32 and record vectors
}

/// Mutate the `n`-th leaf of `rec` (depth first, in visit_fields order;
/// a record vector is one leaf, and its first element's fields are leaves
/// too) and describe it; nullopt when `rec` has at most `n` leaves.
template <FieldRecord T>
std::optional<Leaf> mutate_leaf(T& rec, size_t n) {
  std::optional<Leaf> hit;
  size_t seen = 0;
  const auto walk = [&](const auto& self, auto& r,
                        const std::string& prefix) -> void {
    visit_fields(r, [&](const char* name, auto& f,
                        FieldTag tag = FieldTag::kNone) {
      using F = std::remove_cvref_t<decltype(f)>;
      const std::string path = prefix + name;
      if constexpr (FieldRecord<F>) {
        self(self, f, path + ".");
      } else {
        if constexpr (RecordVector<F>)
          if (!f.empty()) self(self, f.front(), path + "[0].");
        if (seen++ != n) return;
        u32 enum_count = 0;
        if constexpr (std::is_enum_v<F>)
          enum_count = static_cast<u32>(enum_last(F{})) + 1;
        hit = Leaf{path, tag, enum_count};
        mutate(f);
      }
    });
  };
  walk(walk, rec, "");
  return hit;
}

std::vector<u8> encode_spec(const ScenarioSpec& spec) {
  ckpt::Writer w;
  dist::put_spec(w, spec);
  return w.take_blob();
}

ScenarioSpec decode_spec(const std::vector<u8>& blob) {
  ckpt::Reader r(blob, {});
  return dist::get_spec(r);
}

/// The parameter fingerprint a snapshot of a fresh device records.
u64 fingerprint(const ScenarioSpec& spec) {
  const ckpt::SnapshotPtr snap =
      runtime::Device(spec.gpu, spec.platform).snapshot();
  ckpt::Reader r(snap->blob, snap->sections);
  r.enter_section("meta");
  r.get64();  // magic
  r.get32();  // version
  return r.get64();
}

// ---- Wire frames -----------------------------------------------------------

TEST(WireFrame, RoundTripOverSocketpair) {
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  const std::vector<u8> payload = {1, 2, 3, 250, 0, 42};
  dist::send_frame(sv[0], dist::Msg::kResult, payload);
  dist::send_frame(sv[0], dist::Msg::kHeartbeat, {});
  dist::Frame f;
  ASSERT_TRUE(dist::recv_frame(sv[1], &f));
  EXPECT_EQ(dist::Msg::kResult, f.type);
  EXPECT_EQ(payload, f.payload);
  ASSERT_TRUE(dist::recv_frame(sv[1], &f));
  EXPECT_EQ(dist::Msg::kHeartbeat, f.type);
  EXPECT_TRUE(f.payload.empty());
  // Clean EOF at a frame boundary is "peer exited", not an error.
  ::close(sv[0]);
  EXPECT_FALSE(dist::recv_frame(sv[1], &f));
  ::close(sv[1]);
}

TEST(WireFrame, CorruptedPayloadIsLoud) {
  int raw[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, raw));
  const std::vector<u8> payload = {10, 20, 30, 40};
  dist::send_frame(raw[0], dist::Msg::kWork, payload);
  const size_t frame_len = 13 + payload.size() + 8;
  std::vector<u8> bytes(frame_len);
  size_t done = 0;
  while (done < frame_len) {
    const ssize_t n = ::read(raw[1], bytes.data() + done, frame_len - done);
    ASSERT_GT(n, 0);
    done += static_cast<size_t>(n);
  }
  ::close(raw[0]);
  ::close(raw[1]);

  bytes[13 + 1] ^= 0xFF;  // flip one payload byte
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  ASSERT_EQ(static_cast<ssize_t>(bytes.size()),
            ::write(sv[0], bytes.data(), bytes.size()));
  dist::Frame f;
  try {
    dist::recv_frame(sv[1], &f);
    FAIL() << "corrupted frame was accepted";
  } catch (const dist::WireError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
  ::close(sv[0]);
  ::close(sv[1]);

  // Torn frame (peer died mid-write) is an error, not a clean EOF.
  int sv2[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv2));
  ASSERT_EQ(5, ::write(sv2[0], bytes.data(), 5));
  ::close(sv2[0]);
  EXPECT_THROW(dist::recv_frame(sv2[1], &f), dist::WireError);
  ::close(sv2[1]);
}

/// Peak resident set of this process in MiB.
double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

TEST(WireFrame, LyingLengthAllocatesOnlyWhatArrives) {
  // A header claiming 0xF0000000 payload bytes, then EOF: a torn frame,
  // refused after reading what arrived, not after allocating 3.75 GiB.
  ckpt::Writer w;
  w.put32(dist::kFrameMagic);
  w.put8(static_cast<u8>(dist::Msg::kWork));
  w.put64(0xF0000000ull);
  const std::vector<u8>& header = w.blob();
  ASSERT_EQ(13u, header.size());
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  ASSERT_EQ(static_cast<ssize_t>(header.size()),
            ::write(sv[0], header.data(), header.size()));
  ::close(sv[0]);
  const double before = peak_rss_mib();
  dist::Frame f;
  EXPECT_THROW(dist::recv_frame(sv[1], &f), dist::WireError);
  ::close(sv[1]);
  EXPECT_LT(peak_rss_mib() - before, 64.0) << "peak RSS followed the claim";
}

// ---- ScenarioSpec codec ----------------------------------------------------

TEST(WireSpec, RoundTripPreservesEveryField) {
  ScenarioSpec spec = test_spec("srad");
  spec.seed = 777;
  spec.gpu.engine = sim::SimEngine::kDense;
  spec.gpu.num_sms = 4;
  spec.gpu.sp_latency = 7;
  spec.gpu.clock_ghz = 1.9;
  spec.gpu.mem.l1_write_policy = memsys::WritePolicy::kWriteThrough;
  spec.gpu.mem.l1_write_alloc = memsys::WriteAlloc::kNoAllocate;
  spec.gpu.mem.l1_mshr_entries = 4;
  spec.gpu.mem.dram_row_bytes = 4096;
  spec.platform.pcie_h2d_gbps = 7.5;
  spec.platform.launch_ns = 1234;
  spec.policy = sched::Policy::kHalf;
  spec.redundancy.n_copies = 3;
  spec.redundancy.compare = core::RedundancySpec::Compare::kMajorityVote;
  spec.redundancy.tolerance = 0.25f;
  spec.redundancy.srrs_starts = {0, 2, 4};
  spec.redundancy.recovery = core::RedundancySpec::Recovery::kRetry;
  spec.redundancy.max_retries = 5;
  spec.redundancy.ftti_ns = 42'000'000;
  spec.fault = FaultPlan::permanent_sm(2, 5000, 7);
  spec.ckpt = ckpt::CheckpointPolicy::interval(4096);

  const ScenarioSpec back = decode_spec(encode_spec(spec));
  EXPECT_TRUE(spec == back);
  EXPECT_EQ(spec.label(), back.label());

  // Walk every field: a changed field survives the codec, and every GPU,
  // memory and platform field moves the snapshot parameter fingerprint.
  const u64 base_fp = fingerprint(spec);
  size_t n = 0;
  for (ScenarioSpec m = spec; const auto leaf = mutate_leaf(m, n);
       m = spec, ++n) {
    ASSERT_FALSE(m == spec) << leaf->path;
    EXPECT_TRUE(decode_spec(encode_spec(m)) == m) << leaf->path;
    if (leaf->path.starts_with("gpu.") || leaf->path.starts_with("platform."))
      EXPECT_NE(fingerprint(m), base_fp) << leaf->path;
  }
}

TEST(WireSpec, OutOfRangeEnumByteIsRefusedByName) {
  // For each enum field, find its byte by encoding a spec that differs only
  // there, then patch in the first value past the last enumerator.
  const ScenarioSpec spec = test_spec("hotspot");
  const std::vector<u8> blob = encode_spec(spec);
  size_t enums = 0;
  size_t n = 0;
  for (ScenarioSpec m = spec; const auto leaf = mutate_leaf(m, n);
       m = spec, ++n) {
    if (leaf->enum_count == 0) continue;
    ++enums;
    const std::vector<u8> moved = encode_spec(m);
    ASSERT_EQ(blob.size(), moved.size()) << leaf->path;
    size_t at = 0;
    while (at < blob.size() && blob[at] == moved[at]) ++at;
    ASSERT_LT(at, blob.size()) << leaf->path;
    std::vector<u8> bad = blob;
    bad[at] = static_cast<u8>(leaf->enum_count);
    try {
      decode_spec(bad);
      ADD_FAILURE() << leaf->path << " accepted an out-of-range value";
    } catch (const dist::WireError& e) {
      EXPECT_NE(std::string(e.what()).find(leaf->path), std::string::npos)
          << e.what();
    }
  }
  EXPECT_GT(enums, 0u);
}

TEST(WireSpec, CampaignFingerprintTracksContent) {
  const ScenarioSet a = mixed_set();
  const ScenarioSet b = mixed_set();
  EXPECT_EQ(dist::campaign_fingerprint(a), dist::campaign_fingerprint(b));
  ScenarioSet c = mixed_set();
  c.add(test_spec("bfs"));
  EXPECT_NE(dist::campaign_fingerprint(a), dist::campaign_fingerprint(c));
}

// ---- Snapshot wire framing (satellites 1 and 3) ----------------------------

/// Capture a mid-run snapshot of the clean hotspot scenario at the fault
/// group's injection cycle, plus the clean final state.
void capture_base(ckpt::SnapshotPtr* snap, ckpt::SnapshotPtr* final_state) {
  SnapshotIo io;
  io.capture_targets = {2000};
  const ScenarioResult r =
      exp::run_scenario(test_spec("hotspot"), 0, nullptr, nullptr, &io);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(1u, io.captured.size());
  ASSERT_NE(nullptr, io.captured[0]);
  *snap = io.captured[0];
  *final_state = io.final_state;
}

TEST(SnapshotWire, EncodeDecodeRestoreRoundTrip) {
  ckpt::SnapshotPtr snap, final_state;
  capture_base(&snap, &final_state);

  const std::vector<u8> framed = ckpt::encode_snapshot(*snap);
  const ckpt::SnapshotPtr back = ckpt::decode_snapshot(framed);
  ASSERT_NE(nullptr, back);
  EXPECT_EQ(snap->cycle, back->cycle);
  EXPECT_EQ(snap->sync_seq, back->sync_seq);
  EXPECT_EQ(snap->launch_count, back->launch_count);
  EXPECT_EQ(snap->blob, back->blob);
  EXPECT_EQ(snap->hash(), back->hash());
  EXPECT_EQ(snap->programs.size(), back->programs.size());

  // The decoded snapshot must actually *work*: a fault fork resumed from it
  // is bit-identical to one resumed from the original.
  ScenarioSpec fork = test_spec("hotspot");
  fork.fault = FaultPlan::droop(2000, 50, 2);
  SnapshotIo io_orig;
  io_orig.resume = snap;
  const ScenarioResult from_orig =
      exp::run_scenario(fork, 0, nullptr, nullptr, &io_orig);
  SnapshotIo io_back;
  io_back.resume = back;
  const ScenarioResult from_back =
      exp::run_scenario(fork, 0, nullptr, nullptr, &io_back);
  ASSERT_TRUE(from_orig.ok) << from_orig.error;
  ASSERT_TRUE(from_back.ok) << from_back.error;
  EXPECT_TRUE(from_orig.deterministic_fields_equal(from_back));
}

TEST(SnapshotWire, CorruptedSectionIsNamed) {
  ckpt::SnapshotPtr snap, final_state;
  capture_base(&snap, &final_state);
  ASSERT_FALSE(snap->sections.empty());

  // Corrupt one byte inside the first section *before* framing: the frame
  // checksum then matches what was sent, and the per-section integrity
  // check must catch it and name the section.
  ckpt::Snapshot mutated = *snap;
  const ckpt::Section& victim = mutated.sections.front();
  ASSERT_GT(victim.len, 0u);
  mutated.blob[victim.offset] ^= 0xFF;
  const std::vector<u8> framed = ckpt::encode_snapshot(mutated);
  try {
    ckpt::decode_snapshot(framed);
    FAIL() << "corrupted section was accepted";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(victim.name), std::string::npos)
        << "diagnostic does not name the corrupted section: " << e.what();
  }

  // Corruption of the frame itself (transit damage) is caught by the frame
  // checksum; truncation is caught before that.
  std::vector<u8> damaged = ckpt::encode_snapshot(*snap);
  damaged[damaged.size() / 2] ^= 0x01;
  EXPECT_THROW(ckpt::decode_snapshot(damaged), ckpt::SnapshotError);
  std::vector<u8> truncated = ckpt::encode_snapshot(*snap);
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(ckpt::decode_snapshot(truncated), ckpt::SnapshotError);
}

TEST(SnapshotWire, WorkItemCodec) {
  // The unit codec: indices and specs survive in member order.
  dist::Work item;
  item.unit_id = 7;
  item.members = {{3, test_spec("hotspot")},
                  {0, test_spec("hotspot")},
                  {5, test_spec("nw")}};
  item.members[0].spec.fault = FaultPlan::droop(2000, 50, 2);
  const dist::Work got = dist::decode<dist::Work>(dist::encode(item));
  EXPECT_EQ(7u, got.unit_id);
  ASSERT_EQ(item.members.size(), got.members.size());
  for (size_t k = 0; k < item.members.size(); ++k) {
    EXPECT_EQ(item.members[k].index, got.members[k].index);
    EXPECT_EQ(item.members[k].spec, got.members[k].spec);
  }

  const dist::Work empty = dist::decode<dist::Work>(dist::encode(dist::Work{}));
  EXPECT_TRUE(empty.members.empty());
}

// ---- Work-unit codec -------------------------------------------------------

TEST(WireWork, MemberCountPastBytesLeftIsRefusedByName) {
  dist::Work item;
  item.unit_id = 1;
  item.members = {{0, test_spec("hotspot")}};
  std::vector<u8> bytes = dist::encode(item);
  // The member count follows the u64 unit id; claim 2^40 members.
  ckpt::Writer w;
  w.put64(1ull << 40);
  std::copy(w.blob().begin(), w.blob().end(), bytes.begin() + 8);
  try {
    dist::decode<dist::Work>(bytes);
    FAIL() << "an impossible member count was accepted";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("work.members"), std::string::npos)
        << e.what();
  }

  // A truncated member is refused too, never read past the end.
  bytes = dist::encode(item);
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(dist::decode<dist::Work>(bytes), std::exception);
}

// ---- Payload records ---------------------------------------------------------

/// One fixed message of every payload kind.
struct FixedPayloads {
  dist::Hello hello{dist::kProtocolVersion, 3};
  dist::Work work;
  dist::Result result{7, 3, "{\"index\":3}"};
  dist::Log log{2, "+42ms w3 WARN: bank conflict storm"};
  dist::Flight flight{"{\"schema\":\"higpu.flight/1\",\"events\":[]}"};

  FixedPayloads() {
    work.unit_id = 7;
    work.members = {{3, test_spec("hotspot")}, {0, test_spec("nw")}};
    work.members[0].spec.fault = FaultPlan::droop(2000, 50, 2);
  }
};

/// Decode `msg`'s encoding cut at every byte and with one byte appended:
/// each is refused with a WireError naming the payload.
template <class T>
void expect_damage_refused(const T& msg) {
  const std::vector<u8> bytes = dist::encode(msg);
  EXPECT_NO_THROW(dist::decode<T>(bytes)) << T::kName;
  for (size_t n = 0; n <= bytes.size(); ++n) {
    std::vector<u8> damaged(bytes.begin(), bytes.begin() + n);
    if (n == bytes.size()) damaged.push_back(0);
    try {
      dist::decode<T>(damaged);
      ADD_FAILURE() << T::kName << " accepted " << damaged.size() << " of "
                    << bytes.size() << " bytes";
    } catch (const dist::WireError& e) {
      // A truncation names the field it cut ("work.members").
      const std::string want =
          std::string(T::kName) + (n < bytes.size() ? "." : "");
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
      // The reader is shared with snapshots, but a cut payload is not one.
      EXPECT_EQ(std::string(e.what()).find("snapshot"), std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << T::kName << " at " << damaged.size()
                    << " bytes threw something other than WireError: "
                    << e.what();
    }
  }
}

TEST(WirePayload, TruncatedOrPaddedPayloadIsAWireError) {
  const FixedPayloads p;
  expect_damage_refused(p.hello);
  expect_damage_refused(p.work);
  expect_damage_refused(p.result);
  expect_damage_refused(p.log);
  expect_damage_refused(p.flight);
}

TEST(WirePayload, EncodingsArePinned) {
  // FNV-1a over the five fixed encodings in order, pinned at
  // higpu.wire/6 (a GpuParams without the launch-verify and exec-mode
  // bytes, and Hello's version 6): a change here changes the protocol and
  // must bump kProtocolVersion.
  const FixedPayloads p;
  u64 h = 0xcbf29ce484222325ull;
  for (const std::vector<u8>& bytes :
       {dist::encode(p.hello), dist::encode(p.work), dist::encode(p.result),
        dist::encode(p.log), dist::encode(p.flight)})
    h = ckpt::fnv1a(bytes.data(), bytes.size(), h);
  EXPECT_EQ(0xf7a80d4c81a28b99ull, h);
}

// ---- JSONL result records (satellite 2) ------------------------------------

TEST(ResultJsonl, RoundTripIsDeterministicallyEqual) {
  const ScenarioResult r =
      exp::run_scenario(test_spec("hotspot"), 5, nullptr, nullptr, nullptr);
  ASSERT_TRUE(r.ok) << r.error;
  const std::string line = exp::result_to_jsonl(r);
  EXPECT_EQ(std::string::npos, line.find('\n')) << "record spans lines";
  const ScenarioResult back = exp::result_from_jsonl(line);
  EXPECT_TRUE(r.deterministic_fields_equal(back));
  EXPECT_EQ(r.stats, back.stats);
  // And the JSONL layer is idempotent: re-serializing the parsed record
  // yields the identical line.
  EXPECT_EQ(line, exp::result_to_jsonl(back));

  // Walk every field: a changed field survives the record, and every field
  // but the three non-deterministic ones breaks deterministic equality.
  ASSERT_FALSE(r.sm_profile.empty());
  size_t n = 0;
  for (ScenarioResult m = r; const auto leaf = mutate_leaf(m, n);
       m = r, ++n) {
    ASSERT_FALSE(m == r) << leaf->path;
    EXPECT_TRUE(exp::result_from_jsonl(exp::result_to_jsonl(m)) == m)
        << leaf->path;
    EXPECT_EQ(leaf->tag == FieldTag::kNotDeterministic,
              m.deterministic_fields_equal(r))
        << leaf->path;
  }
}

TEST(ResultJsonl, EscapesControlCharactersAndQuotes) {
  // The satellite pin: an error string carrying a newline, a quote and a
  // backslash must survive a JSONL round trip on one line.
  ScenarioResult r;
  r.index = 9;
  r.workload = "hotspot";
  r.label = "hotspot:test:seed2019:srrs:red:nofault";
  r.ok = false;
  r.error = "device said \"no\"\n\tat cycle 42 (path C:\\tmp)";
  r.outcome = fault::Outcome::kDetected;
  const std::string line = exp::result_to_jsonl(r);
  EXPECT_EQ(std::string::npos, line.find('\n'));
  EXPECT_EQ(std::string::npos, line.find('\t'));
  const ScenarioResult back = exp::result_from_jsonl(line);
  EXPECT_EQ(r.error, back.error);
  EXPECT_TRUE(r.deterministic_fields_equal(back));
}

TEST(ResultJsonl, MalformedRecordIsLoud) {
  EXPECT_THROW(exp::result_from_jsonl("{\"index\":}"), std::exception);
  EXPECT_THROW(exp::result_from_jsonl("not json at all"), std::exception);
  EXPECT_THROW(exp::result_from_jsonl("{}"), std::exception);  // no fields
}

// ---- Journal ---------------------------------------------------------------

TEST(Journal, WriteScanRoundTrip) {
  const std::string path = tmp_path("journal.jsonl");
  const ScenarioResult r0 =
      exp::run_scenario(test_spec("hotspot"), 0, nullptr, nullptr, nullptr);
  const ScenarioResult r2 =
      exp::run_scenario(test_spec("nw"), 2, nullptr, nullptr, nullptr);
  {
    dist::Journal j = dist::Journal::create(path, 0xABCD, 4);
    j.add(r0);
    j.add(r2);
    EXPECT_EQ(2u, j.records_written());
  }
  const dist::Scan scan = dist::scan_journal(path);
  EXPECT_EQ(0xABCDu, scan.fingerprint);
  EXPECT_EQ(4u, scan.scenarios);
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(2u, scan.results.size());
  EXPECT_TRUE(scan.results.at(0).deterministic_fields_equal(r0));
  EXPECT_TRUE(scan.results.at(2).deterministic_fields_equal(r2));
  std::remove(path.c_str());
}

TEST(Journal, HeaderAndLogLinesKeepTheirBytes) {
  // The field walk writes the same lines the journal has always held.
  const std::string path = tmp_path("lines.jsonl");
  {
    dist::Journal j = dist::Journal::create(path, 77, 2);
    j.add_log({1, 2, "say \"hi\""});
  }
  EXPECT_EQ(
      "{\"schema\":\"higpu.campaign.jsonl/1\",\"fingerprint\":77,"
      "\"scenarios\":2}\n"
      "{\"log\":{\"worker\":1,\"level\":2,\"line\":\"say \\\"hi\\\"\"}}\n",
      read_text(path));
  EXPECT_EQ(1u, dist::scan_journal(path).aux_records);
  std::remove(path.c_str());
}

TEST(Journal, HeaderWithoutAFieldIsAJournalError) {
  const std::string path = tmp_path("header.jsonl");
  write_text(path,
             "{\"schema\":\"higpu.campaign.jsonl/1\",\"scenarios\":2}\n");
  try {
    dist::scan_journal(path);
    FAIL() << "a header without its fingerprint was accepted";
  } catch (const dist::JournalError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Journal, TornTailToleratedCorruptionNamed) {
  const std::string path = tmp_path("torn.jsonl");
  const ScenarioResult r0 =
      exp::run_scenario(test_spec("hotspot"), 0, nullptr, nullptr, nullptr);
  {
    dist::Journal j = dist::Journal::create(path, 1, 3);
    j.add(r0);
  }
  // SIGKILL artifact: a record torn mid-write, no trailing newline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"index\":1,\"label\":\"half-writ";
  }
  const dist::Scan scan = dist::scan_journal(path);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(1u, scan.results.size());

  // A *complete* malformed line is corruption and must be named.
  write_text(path,
             "{\"schema\":\"higpu.campaign.jsonl/1\",\"fingerprint\":1,"
             "\"scenarios\":3}\n"
             "{\"index\":oops}\n");
  try {
    dist::scan_journal(path);
    FAIL() << "corrupted journal record was accepted";
  } catch (const dist::JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("record 1"), std::string::npos)
        << e.what();
  }

  // Wrong schema and an out-of-range index are refused too.
  write_text(path, "{\"schema\":\"something.else/9\",\"fingerprint\":1,"
                   "\"scenarios\":3}\n");
  EXPECT_THROW(dist::scan_journal(path), dist::JournalError);
  std::remove(path.c_str());
}

TEST(Journal, DisagreeingDuplicateIsRefused) {
  const std::string path = tmp_path("dup.jsonl");
  ScenarioResult a =
      exp::run_scenario(test_spec("hotspot"), 0, nullptr, nullptr, nullptr);
  {
    dist::Journal j = dist::Journal::create(path, 1, 2);
    j.add(a);
    j.add(a);  // identical duplicate: fine (redispatch race)
  }
  EXPECT_EQ(1u, dist::scan_journal(path).results.size());
  ScenarioResult b = a;
  b.kernel_cycles += 1;  // same index, different deterministic fields
  {
    dist::Journal j = dist::Journal::append_to(path);
    j.add(b);
  }
  EXPECT_THROW(dist::scan_journal(path), dist::JournalError);
  std::remove(path.c_str());
}

// ---- The determinism contract ----------------------------------------------

TEST(Distributed, BitIdenticalAtAnyWorkerCount) {
  const ScenarioSet set = mixed_set();
  const exp::CampaignResult golden = golden_jobs1(set);
  for (u32 workers : {1u, 2u, 4u}) {
    dist::DistConfig cfg;
    cfg.workers = workers;
    const dist::DistReport rep = dist::run_distributed(set, cfg);
    EXPECT_FALSE(rep.stopped_early);
    EXPECT_EQ(0u, rep.workers_died) << "workers=" << workers;
    expect_equals_golden(rep.campaign, golden);
    // One frame per unit (the hotspot group and two singletons), and the
    // group's snapshots never leave its worker.
    EXPECT_EQ(3u, rep.units_shipped) << "workers=" << workers;
    EXPECT_EQ(0u, rep.snapshot_bytes_shipped) << "workers=" << workers;
  }
}

TEST(Distributed, InlineModeJournalsAndMatches) {
  const ScenarioSet set = mixed_set();
  const exp::CampaignResult golden = golden_jobs1(set);
  const std::string path = tmp_path("inline.jsonl");
  dist::DistConfig cfg;
  cfg.workers = 0;  // no fleet: coordinator runs everything itself
  cfg.journal_path = path;
  const dist::DistReport rep = dist::run_distributed(set, cfg);
  expect_equals_golden(rep.campaign, golden);
  const dist::Scan scan = dist::scan_journal(path);
  EXPECT_EQ(set.size(), scan.results.size());
  EXPECT_EQ(dist::campaign_fingerprint(set), scan.fingerprint);
  std::remove(path.c_str());
}

TEST(Distributed, SurvivesWorkerSigkill) {
  const ScenarioSet set = mixed_set();
  const exp::CampaignResult golden = golden_jobs1(set);
  dist::DistConfig cfg;
  cfg.workers = 2;
  cfg.chaos_kill_after = 1;  // SIGKILL a live worker after the 1st result
  const dist::DistReport rep = dist::run_distributed(set, cfg);
  EXPECT_GE(rep.workers_died, 1u);
  expect_equals_golden(rep.campaign, golden);
}

TEST(Distributed, KillInsideUnitRedispatchesItsRemainder) {
  // One unit of six members: the kill lands on the worker running it after
  // its first result, and the other worker runs the five unreported
  // members as one unit.
  const ScenarioSet set =
      ScenarioSet::of(test_spec("hotspot"))
          .sweep_faults({FaultPlan::none(), FaultPlan::droop(1000, 50, 1),
                         FaultPlan::droop(2000, 50, 2),
                         FaultPlan::droop(3000, 50, 3),
                         FaultPlan::transient_sm(1, 2500, 40, 3),
                         FaultPlan::transient_sm(2, 4000, 40, 4)});
  ASSERT_EQ(1u, exp::plan_units(set, true).size());
  const exp::CampaignResult golden = golden_jobs1(set);
  dist::DistConfig cfg;
  cfg.workers = 2;
  cfg.chaos_kill_after = 1;
  const dist::DistReport rep = dist::run_distributed(set, cfg);
  EXPECT_EQ(1u, rep.workers_died);
  EXPECT_EQ(2u, rep.units_shipped);
  EXPECT_EQ(set.size(), rep.executed);
  expect_equals_golden(rep.campaign, golden);
}

/// hotspot under DCLS and DCLS with rollback, each without a fault, under
/// a droop the DCLS comparison detects, a quiet droop before the first
/// kernel and a transient on SM 1: one unit spanning both recovery
/// strategies, in which the rollback fork of the detected droop also
/// answers its DCLS twin.
ScenarioSet mixed_recovery_set() {
  return ScenarioSet::of(test_spec("hotspot"))
      .sweep_redundancy({core::RedundancySpec::dcls(),
                         core::RedundancySpec::dcls_rollback(2)})
      .sweep_faults({FaultPlan::none(), FaultPlan::droop(12005, 200, 5),
                     FaultPlan::droop(2000, 50, 2),
                     FaultPlan::transient_sm(1, 3000, 40, 3)});
}

TEST(Distributed, MixedRecoveryUnitMatchesGolden) {
  ScenarioSet set = mixed_recovery_set();
  set.add(test_spec("nw"));
  ASSERT_EQ(2u, exp::plan_units(set, true).size());
  const exp::CampaignResult golden = golden_jobs1(set);
  for (u32 workers : {1u, 2u}) {
    dist::DistConfig cfg;
    cfg.workers = workers;
    const dist::DistReport rep = dist::run_distributed(set, cfg);
    EXPECT_EQ(0u, rep.workers_died) << "workers=" << workers;
    EXPECT_EQ(2u, rep.units_shipped) << "workers=" << workers;
    expect_equals_golden(rep.campaign, golden);
  }
}

TEST(Distributed, KillInsideMixedRecoveryUnitRedispatchesItsRemainder) {
  // The kill lands on the worker running the one unit after its first
  // result (the base's), and the other worker runs the rest as one unit.
  const ScenarioSet set = mixed_recovery_set();
  ASSERT_EQ(1u, exp::plan_units(set, true).size());
  const exp::CampaignResult golden = golden_jobs1(set);
  dist::DistConfig cfg;
  cfg.workers = 2;
  cfg.chaos_kill_after = 1;
  const dist::DistReport rep = dist::run_distributed(set, cfg);
  EXPECT_EQ(1u, rep.workers_died);
  EXPECT_EQ(2u, rep.units_shipped);
  EXPECT_EQ(set.size(), rep.executed);
  expect_equals_golden(rep.campaign, golden);
}

TEST(Distributed, JournalHoldsOneFlightLinePerSimulatedMiscompare) {
  const ScenarioSet set = mixed_recovery_set();
  // The dumps the worker path ships: every simulated run but the base gets
  // a tracer, and each of its miscompares leaves one dump. A member answered
  // without a device of its own — from the base or from its rollback twin's
  // first attempt — ships none.
  size_t dumps = 0;
  std::optional<obs::Tracer> tracer;
  const exp::ScenarioProbe attach = [&tracer](runtime::Device& dev,
                                              workloads::Workload&,
                                              core::ExecSession&) {
    dev.set_tracer(&tracer.emplace());
  };
  const exp::ScenarioProbe count = [&dumps](runtime::Device&,
                                            workloads::Workload&,
                                            core::ExecSession& session) {
    dumps += session.flight_dumps().size();
  };
  for (const exp::WorkUnit& u : exp::plan_units(set, true))
    exp::run_unit(set, u.members, [](ScenarioResult) {}, count, attach);
  const size_t per_simulated_run = dumps;
  ASSERT_GT(per_simulated_run, 0u);
  // Run one by one, the scenarios dump more: there the DCLS twin of the
  // detected droop has a run of its own.
  dumps = 0;
  for (size_t i = 0; i < set.size(); ++i)
    (void)exp::run_scenario(set[i], static_cast<u32>(i), count, attach);
  EXPECT_LT(per_simulated_run, dumps);

  const std::string path = tmp_path("flight.jsonl");
  dist::DistConfig cfg;
  cfg.workers = 2;
  cfg.journal_path = path;
  const dist::DistReport rep = dist::run_distributed(set, cfg);
  expect_equals_golden(rep.campaign, golden_jobs1(set));
  std::istringstream lines(read_text(path));
  std::remove(path.c_str());
  size_t flights = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("{\"flight\":", 0) != 0) continue;
    ++flights;
    const JsonValue flight = parse_json(line).at("flight");
    EXPECT_EQ(obs::kFlightSchema, flight.at("dump").get_string("schema"));
    EXPECT_FALSE(flight.at("dump").at("events").array.empty());
  }
  EXPECT_EQ(per_simulated_run, flights);
}

TEST(Distributed, ResultOutsideTheUnitKillsTheWorker) {
  // A fake worker: a script that says Hello, then returns a well-formed
  // result for scenario 5, which is not in the one-member unit it is
  // given. The coordinator must treat it as dead and finish inline.
  const ScenarioSet set = ScenarioSet::of(test_spec("nw"));
  const exp::CampaignResult golden = golden_jobs1(set);
  ScenarioResult stray;
  stray.index = 5;
  stray.workload = "nw";
  stray.label = "stray";
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  dist::send_frame(sv[0], dist::Msg::kHello, dist::encode(dist::Hello{}));
  dist::send_frame(
      sv[0], dist::Msg::kResult,
      dist::encode(dist::Result{0, 5, exp::result_to_jsonl(stray)}));
  ::close(sv[0]);
  std::string frames;
  char buf[4096];
  for (ssize_t n; (n = ::read(sv[1], buf, sizeof buf)) > 0;)
    frames.append(buf, static_cast<size_t>(n));
  ::close(sv[1]);
  const std::string frames_path = tmp_path("stray.bin");
  const std::string script = tmp_path("stray_worker.sh");
  write_text(frames_path, frames);
  write_text(script, "#!/bin/sh\ncat '" + frames_path +
                         "' >&3\nexec sleep 30\n");
  ASSERT_EQ(0, ::chmod(script.c_str(), 0755));

  dist::DistConfig cfg;
  cfg.workers = 1;
  cfg.worker_exe = script;
  const dist::DistReport rep = dist::run_distributed(set, cfg);
  std::remove(frames_path.c_str());
  std::remove(script.c_str());
  EXPECT_EQ(1u, rep.workers_died);
  EXPECT_EQ(1u, rep.executed);
  expect_equals_golden(rep.campaign, golden);
}

TEST(Distributed, FallsBackInlineWhenFleetDies) {
  const ScenarioSet set = mixed_set();
  const exp::CampaignResult golden = golden_jobs1(set);
  dist::DistConfig cfg;
  cfg.workers = 1;
  cfg.chaos_kill_after = 1;  // the whole (one-worker) fleet dies
  const dist::DistReport rep = dist::run_distributed(set, cfg);
  EXPECT_GE(rep.workers_died, 1u);
  expect_equals_golden(rep.campaign, golden);
}

TEST(Distributed, ResumeExecutesOnlyMissingScenarios) {
  const ScenarioSet set = mixed_set();
  const exp::CampaignResult golden = golden_jobs1(set);
  const std::string path = tmp_path("resume.jsonl");

  // First run "crashes" after 2 accepted results.
  dist::DistConfig cfg;
  cfg.workers = 2;
  cfg.journal_path = path;
  cfg.stop_after_results = 2;
  const dist::DistReport partial = dist::run_distributed(set, cfg);
  EXPECT_TRUE(partial.stopped_early);
  EXPECT_GE(partial.executed, 2u);

  const size_t already = dist::scan_journal(path).results.size();
  ASSERT_GT(already, 0u);
  ASSERT_LT(already, set.size());

  // The resume must re-execute exactly the missing indices — no more.
  dist::DistConfig rcfg;
  rcfg.workers = 2;
  rcfg.journal_path = path;
  rcfg.resume = true;
  const dist::DistReport rep = dist::run_distributed(set, rcfg);
  EXPECT_FALSE(rep.stopped_early);
  EXPECT_EQ(already, rep.resumed);
  EXPECT_EQ(set.size() - already, rep.executed);
  expect_equals_golden(rep.campaign, golden);

  // A second resume of the now-complete journal executes nothing.
  const dist::DistReport noop = dist::run_distributed(set, rcfg);
  EXPECT_EQ(set.size(), noop.resumed);
  EXPECT_EQ(0u, noop.executed);
  expect_equals_golden(noop.campaign, golden);
  std::remove(path.c_str());
}

TEST(Distributed, ResumeSkipsFleetLineFromOlderJournals) {
  const ScenarioSet set = mixed_set();
  const exp::CampaignResult golden = golden_jobs1(set);
  const std::string path = tmp_path("fleet.jsonl");

  dist::DistConfig cfg;
  cfg.workers = 2;
  cfg.journal_path = path;
  cfg.stop_after_results = 2;
  ASSERT_TRUE(dist::run_distributed(set, cfg).stopped_early);
  const u64 aux_before = dist::scan_journal(path).aux_records;

  // Earlier builds closed every fleet run, stopped ones included, with one
  // {"fleet": <higpu.metrics/1>} line. No build writes it now; a journal
  // that ends with one must still scan and resume.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"fleet\":{\"schema\":\"higpu.metrics/1\",\"at\":1234,"
           "\"counters\":{\"dist.steals\":1,\"dist.w0.results\":2,"
           "\"dist.w0.units_shipped\":2,\"dist.w1.units_shipped\":1},"
           "\"gauges\":{},\"hist\":{}}}\n";
  }
  const dist::Scan scan = dist::scan_journal(path);
  EXPECT_EQ(aux_before + 1, scan.aux_records);
  EXPECT_FALSE(scan.torn_tail);
  const size_t already = scan.results.size();
  ASSERT_GT(already, 0u);
  ASSERT_LT(already, set.size());

  dist::DistConfig rcfg;
  rcfg.workers = 2;
  rcfg.journal_path = path;
  rcfg.resume = true;
  const dist::DistReport rep = dist::run_distributed(set, rcfg);
  EXPECT_FALSE(rep.stopped_early);
  EXPECT_EQ(already, rep.resumed);
  EXPECT_EQ(set.size() - already, rep.executed);
  expect_equals_golden(rep.campaign, golden);
  EXPECT_EQ(set.size(), dist::scan_journal(path).results.size());
  std::remove(path.c_str());
}

TEST(Distributed, ResumeRefusesForeignJournal) {
  const ScenarioSet set = mixed_set();
  const std::string path = tmp_path("foreign.jsonl");
  {
    dist::Journal j = dist::Journal::create(path, 12345, set.size());
    (void)j;
  }
  dist::DistConfig cfg;
  cfg.workers = 0;
  cfg.journal_path = path;
  cfg.resume = true;
  try {
    dist::run_distributed(set, cfg);
    FAIL() << "foreign journal was accepted for resume";
  } catch (const dist::JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("different campaign"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// ---- A unit in a fresh process ----------------------------------------------

/// Run one encoded Work unit through a freshly spawned campaign_worker in
/// file mode and parse the result records it writes, one per member.
std::vector<ScenarioResult> run_in_fresh_process(const dist::Work& item) {
  const std::string work = tmp_path("work.bin");
  const std::string out = tmp_path("out.jsonl");
  const std::vector<u8> payload = dist::encode(item);
  {
    std::ofstream f(work, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  }
  const std::string cmd = dist::default_worker_exe() + " --work=" + work +
                          " --out=" + out;
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(0, rc) << cmd;
  std::istringstream lines(read_text(out));
  std::remove(work.c_str());
  std::remove(out.c_str());
  std::vector<ScenarioResult> results;
  for (std::string line; std::getline(lines, line);)
    results.push_back(exp::result_from_jsonl(line));
  return results;
}

TEST(Distributed, GroupUnitRunsInFreshProcess) {
  // The hotspot group of mixed_set as a kWork unit: the fresh process runs
  // its base, forks the transient from the snapshot it captured and answers
  // the quiet droops from the base result.
  const ScenarioSet set = mixed_set();
  const exp::CampaignResult golden = golden_jobs1(set);
  const exp::WorkUnit unit = exp::plan_units(set, true).front();
  ASSERT_TRUE(unit.worth_base_run());
  dist::Work item;
  item.unit_id = 0;
  for (size_t m : unit.members)
    item.members.push_back({static_cast<u32>(m), set[m]});

  const std::vector<ScenarioResult> remote = run_in_fresh_process(item);
  ASSERT_EQ(unit.members.size(), remote.size());
  std::vector<bool> seen(set.size(), false);
  for (const ScenarioResult& r : remote) {
    ASSERT_LT(r.index, set.size());
    EXPECT_FALSE(seen[r.index]) << "scenario " << r.index << " reported twice";
    seen[r.index] = true;
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.deterministic_fields_equal(golden.results[r.index]))
        << "scenario " << r.index << " differs from the jobs=1 golden";
  }
  for (size_t m : unit.members) EXPECT_TRUE(seen[m]) << "scenario " << m;
}

TEST(Distributed, MismatchedSnapshotIsRefusedCleanly) {
  ckpt::SnapshotPtr snap, final_state;
  capture_base(&snap, &final_state);  // captured on the default 6-SM GPU

  ScenarioSpec spec = test_spec("hotspot");
  spec.gpu.num_sms = 4;  // a different device than the snapshot's
  spec.fault = FaultPlan::droop(2000, 50, 2);
  SnapshotIo io;
  io.resume = snap;
  const ScenarioResult r = exp::run_scenario(spec, 0, nullptr, nullptr, &io);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(std::string::npos, r.error.find("parameters"))
      << "refusal should name the parameter mismatch, got: " << r.error;
}

}  // namespace
}  // namespace higpu
