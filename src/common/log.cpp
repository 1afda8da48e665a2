#include "common/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace higpu {

namespace {
// Atomic so campaign worker threads can log while the main thread adjusts
// the level (and so the read stays TSan-clean).
std::atomic<LogLevel> g_level{LogLevel::kWarn};

// Sink and prefix are rarely written (process setup) but read on every
// line, possibly from several threads: one mutex covers both plus the
// actual emit, so lines never interleave mid-write.
std::mutex g_mu;
LogSink g_sink;          // guarded by g_mu
std::string g_prefix;    // guarded by g_mu

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "ERROR";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kDebug: return "DEBUG";
    default: return "";
  }
}
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}
LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

u64 log_monotonic_ms() {
  static const auto t0 = std::chrono::steady_clock::now();
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
}

void set_log_sink(LogSink sink) {
  log_monotonic_ms();  // anchor the epoch no later than sink installation
  const std::lock_guard<std::mutex> lock(g_mu);
  g_sink = std::move(sink);
}

void set_log_prefix(const std::string& prefix) {
  const std::lock_guard<std::mutex> lock(g_mu);
  g_prefix = prefix;
}

void log_msg(LogLevel level, const std::string& msg) {
  if (level > log_level() || level == LogLevel::kSilent) return;
  std::string line = "+";
  line += std::to_string(log_monotonic_ms());
  line += "ms ";
  const std::lock_guard<std::mutex> lock(g_mu);
  if (!g_prefix.empty()) {
    line += g_prefix;
    line += ' ';
  }
  line += level_tag(level);
  line += ": ";
  line += msg;
  if (g_sink) {
    g_sink(level, line);
    return;
  }
  std::fprintf(stderr, "[higpu] %s\n", line.c_str());
}

}  // namespace higpu
