// campaign_worker — the fleet binary of the distributed campaign service.
//
// Two modes:
//
//   campaign_worker --fd=N [--id=K] [--heartbeat-ms=M]
//       Protocol mode: speak higpu.wire/6 over inherited file descriptor N.
//       This is how dist::run_distributed launches the fleet; it is not
//       meant to be started by hand.
//
//   campaign_worker --work=FILE --out=FILE
//       One-shot file mode: FILE holds one encoded kWork payload (the
//       exact bytes a coordinator would ship); the unit runs in this fresh
//       process through exp::run_unit and --out receives one
//       higpu.campaign.jsonl/1 line per member, in execution order. Exists
//       for the cross-process unit test and for debugging single units
//       outside a campaign.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "dist/protocol.h"
#include "dist/worker.h"
#include "exp/campaign.h"
#include "exp/result_io.h"

using namespace higpu;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: campaign_worker --fd=N [--id=K] [--heartbeat-ms=M]\n"
               "       campaign_worker --work=FILE --out=FILE\n");
  return 2;
}

bool arg_value(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

std::vector<u8> read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot open '" + path + "'");
  std::vector<u8> bytes;
  u8 buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
    bytes.insert(bytes.end(), buf, buf + n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) throw std::runtime_error("read error on '" + path + "'");
  return bytes;
}

int run_file_mode(const std::string& work_path, const std::string& out_path) {
  const dist::Work item =
      dist::decode<dist::Work>(read_file_bytes(work_path));
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (!f) throw std::runtime_error("cannot open '" + out_path + "'");
  dist::run_item(item, [f](const exp::ScenarioResult& r) {
    std::fprintf(f, "%s\n", exp::result_to_jsonl(r).c_str());
  });
  std::fclose(f);
  // A scenario's own failure is data, not a process failure: the caller
  // reads ok/error from each record.
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int fd = -1;
  u32 id = 0;
  int heartbeat_ms = 200;
  std::string work_path, out_path, v;
  for (int i = 1; i < argc; ++i) {
    if (arg_value(argv[i], "--fd", &v))
      fd = std::atoi(v.c_str());
    else if (arg_value(argv[i], "--id", &v))
      id = static_cast<u32>(std::strtoul(v.c_str(), nullptr, 10));
    else if (arg_value(argv[i], "--heartbeat-ms", &v))
      heartbeat_ms = std::atoi(v.c_str());
    else if (arg_value(argv[i], "--work", &v))
      work_path = v;
    else if (arg_value(argv[i], "--out", &v))
      out_path = v;
    else
      return usage();
  }
  try {
    if (!work_path.empty() && !out_path.empty())
      return run_file_mode(work_path, out_path);
    if (fd >= 0) return dist::worker_main(fd, id, heartbeat_ms);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_worker: %s\n", e.what());
    return 1;
  }
  return usage();
}
