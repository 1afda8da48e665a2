#include "dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dist/journal.h"
#include "dist/protocol.h"
#include "exp/result_io.h"
#include "exp/units.h"

namespace higpu::dist {

namespace {

using Clock = std::chrono::steady_clock;

/// One shippable work unit: the pending members of an exp::WorkUnit. A
/// worker's in-flight task shrinks as its members' results arrive.
struct Task {
  u64 unit_id = 0;
  std::vector<size_t> members;
};

struct WorkerProc {
  pid_t pid = -1;
  int fd = -1;
  u32 id = 0;
  bool alive = false;
  bool ready = false;  // Hello received
  Task inflight;       // members not yet reported; empty when idle
  Clock::time_point last_heard;

  bool busy() const { return !inflight.members.empty(); }
};

/// Campaign state the poll loop and the inline fallback funnel accepted
/// results through.
struct Progress {
  const DistConfig* cfg = nullptr;
  std::map<u32, exp::ScenarioResult> results;
  std::optional<Journal> journal;
  u64 executed = 0;      // results accepted this run (not resumed)
  bool stopped = false;  // stop_after_results tripped

  /// Record one result: journal it, count it, surface it. A result that
  /// arrives after the simulated crash (stop_after_results) is dropped, as
  /// a crashed coordinator would never see it. Duplicate indices are
  /// dropped silently — determinism makes the copies identical, and the
  /// journal scan enforces that on the next resume.
  void accept(const exp::ScenarioResult& r) {
    if (stopped) return;
    if (!results.emplace(r.index, r).second) return;
    if (journal) journal->add(r);
    ++executed;
    if (cfg->on_result) cfg->on_result(r);
    if (cfg->stop_after_results > 0 && executed >= cfg->stop_after_results)
      stopped = true;
  }

  bool done(size_t total) const { return results.size() >= total; }

  /// Run one unit on the calling thread (no fleet, or a dead one).
  void run_inline(const exp::ScenarioSet& set, const Task& t) {
    exp::run_unit(set, t.members,
                  [this](const exp::ScenarioResult& r) { accept(r); });
  }
};

/// Fork one worker connected over an AF_UNIX socketpair; the child sees its
/// end as fd 3.
WorkerProc spawn_worker(const std::string& exe, u32 id,
                        int heartbeat_interval_ms) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
    throw std::runtime_error("socketpair failed for worker " +
                             std::to_string(id));
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw std::runtime_error("fork failed for worker " + std::to_string(id));
  }
  if (pid == 0) {
    // Child. dup2 clears CLOEXEC on the worker's end; the parent's end and
    // every other inherited CLOEXEC fd close at exec.
    ::dup2(sv[1], 3);
    const std::string id_arg = "--id=" + std::to_string(id);
    const std::string hb_arg =
        "--heartbeat-ms=" + std::to_string(heartbeat_interval_ms);
    ::execl(exe.c_str(), "campaign_worker", "--fd=3", id_arg.c_str(),
            hb_arg.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed; parent sees immediate EOF
  }
  ::close(sv[1]);
  WorkerProc w;
  w.pid = pid;
  w.fd = sv[0];
  w.id = id;
  w.alive = true;
  w.last_heard = Clock::now();
  return w;
}

void reap(WorkerProc& w) {
  if (w.fd >= 0) ::close(w.fd);
  w.fd = -1;
  if (w.pid > 0) {
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.pid = -1;
  }
  w.alive = false;
}

}  // namespace

std::string default_worker_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "./campaign_worker";
  buf[n] = '\0';
  std::string path(buf);
  const size_t slash = path.rfind('/');
  return (slash == std::string::npos ? std::string(".")
                                     : path.substr(0, slash)) +
         "/campaign_worker";
}

DistReport run_distributed(const exp::ScenarioSet& set,
                           const DistConfig& config) {
  if (set.empty())
    throw std::invalid_argument("run_distributed: empty scenario set");
  if (config.resume && config.journal_path.empty())
    throw std::invalid_argument(
        "run_distributed: --resume requires a journal path");

  const auto t0 = Clock::now();
  const u64 fingerprint = campaign_fingerprint(set);
  DistReport report;
  Progress progress;
  progress.cfg = &config;

  if (!config.journal_path.empty()) {
    if (config.resume) {
      const Scan scan = scan_journal(config.journal_path);
      if (scan.fingerprint != fingerprint)
        throw JournalError(
            "journal '" + config.journal_path + "' was written for a "
            "different campaign (fingerprint " +
            std::to_string(scan.fingerprint) + ", this campaign is " +
            std::to_string(fingerprint) + "); refusing to resume");
      if (scan.scenarios != set.size())
        throw JournalError("journal '" + config.journal_path + "' records " +
                           std::to_string(scan.scenarios) +
                           " scenarios, this campaign has " +
                           std::to_string(set.size()));
      progress.results = scan.results;
      report.resumed = scan.results.size();
      progress.journal = Journal::append_to(config.journal_path);
    } else {
      progress.journal =
          Journal::create(config.journal_path, fingerprint, set.size());
    }
  }

  // ---- Plan: decompose into units. On resume a unit holds only its
  // members missing from the journal, and one with none left is skipped;
  // run_unit decides from what remains whether a base run is worth it
  // (bit-identical either way — forking is purely an acceleration).
  std::vector<Task> tasks;
  for (const exp::WorkUnit& unit :
       plan_units(set, config.snapshot_fast_forward)) {
    Task t;
    for (size_t m : unit.members)
      if (!progress.results.count(static_cast<u32>(m))) t.members.push_back(m);
    if (t.members.empty()) continue;
    t.unit_id = tasks.size();
    tasks.push_back(std::move(t));
  }

  // ---- Dispatch. Zero workers (or a fully dead fleet, below) degrades to
  // inline execution on the coordinator.
  const bool want_fleet = config.workers > 0 && !tasks.empty();
  if (!want_fleet) {
    for (const Task& t : tasks) {
      if (progress.stopped) break;
      progress.run_inline(set, t);
    }
  } else {
    const std::string exe =
        config.worker_exe.empty() ? default_worker_exe() : config.worker_exe;
    std::vector<WorkerProc> fleet;
    for (u32 i = 0; i < config.workers; ++i)
      fleet.push_back(spawn_worker(exe, i, config.heartbeat_interval_ms));
    std::vector<std::deque<Task>> shards(config.workers);
    for (size_t i = 0; i < tasks.size(); ++i)
      shards[i % config.workers].push_back(std::move(tasks[i]));

    u64 accepted_before_chaos = 0;
    bool chaos_done = config.chaos_kill_after == 0;

    auto pop_task = [&](size_t self) -> std::optional<Task> {
      if (!shards[self].empty()) {
        Task t = std::move(shards[self].front());
        shards[self].pop_front();
        return t;
      }
      // Steal from the largest remaining shard (back end, so the victim's
      // own front-of-shard order is preserved).
      size_t victim = shards.size();
      size_t best = 0;
      for (size_t s = 0; s < shards.size(); ++s)
        if (shards[s].size() > best) {
          best = shards[s].size();
          victim = s;
        }
      if (victim == shards.size()) return std::nullopt;
      Task t = std::move(shards[victim].back());
      shards[victim].pop_back();
      return t;
    };

    auto mark_dead = [&](WorkerProc& w) {
      if (!w.alive) return;
      if (w.pid > 0) ::kill(w.pid, SIGKILL);
      reap(w);
      ++report.workers_died;
      if (w.busy()) {
        // Its unreported members are unaccounted for — put them back, as
        // one unit, at the front of that worker's shard so a surviving
        // worker steals them.
        shards[w.id % shards.size()].push_front(std::move(w.inflight));
        w.inflight = {};
      }
    };

    auto dispatch = [&](WorkerProc& w) {
      if (!w.alive || !w.ready || w.busy()) return;
      std::optional<Task> t = pop_task(w.id % shards.size());
      if (!t) return;
      Work work;
      work.unit_id = t->unit_id;
      for (size_t m : t->members)
        work.members.push_back({static_cast<u32>(m), set[m]});
      try {
        send_frame(w.fd, Msg::kWork, encode(work));
      } catch (const WireError&) {
        shards[w.id % shards.size()].push_front(std::move(*t));
        mark_dead(w);
        return;
      }
      w.inflight = std::move(*t);
      ++report.units_shipped;
    };

    auto handle_frame = [&](WorkerProc& w, const Frame& frame) {
      w.last_heard = Clock::now();
      switch (frame.type) {
        case Msg::kHello: {
          const Hello hello = decode<Hello>(frame.payload);
          if (hello.version != kProtocolVersion)
            throw WireError("worker speaks higpu.wire/" +
                            std::to_string(hello.version) +
                            ", coordinator expects higpu.wire/" +
                            std::to_string(kProtocolVersion));
          w.ready = true;
          dispatch(w);
          break;
        }
        case Msg::kHeartbeat:
          break;
        case Msg::kResult: {
          const Result msg = decode<Result>(frame.payload);
          // A malformed record here throws (WireError path below): a
          // worker that returns garbage is a dead worker, and its unit is
          // re-dispatched.
          const exp::ScenarioResult r = exp::result_from_jsonl(msg.jsonl);
          if (r.index != msg.index)
            throw WireError("worker result indices disagree (frame says " +
                            std::to_string(msg.index) + ", record says " +
                            std::to_string(r.index) + ")");
          std::vector<size_t>& pending = w.inflight.members;
          const auto it = std::find(pending.begin(), pending.end(),
                                    static_cast<size_t>(msg.index));
          if (msg.unit_id != w.inflight.unit_id || it == pending.end())
            throw WireError("worker returned scenario " +
                            std::to_string(msg.index) + " of unit " +
                            std::to_string(msg.unit_id) +
                            ", which is not pending in its in-flight unit " +
                            std::to_string(w.inflight.unit_id));
          pending.erase(it);
          ++accepted_before_chaos;
          progress.accept(r);
          dispatch(w);  // a no-op until the unit's last member lands
          break;
        }
        case Msg::kLog: {
          // Redirected worker log line: land it in the campaign journal so
          // the fleet's output survives in one ordered place.
          const Log msg = decode<Log>(frame.payload);
          if (progress.journal)
            progress.journal->add_log({w.id, msg.level, msg.line});
          break;
        }
        case Msg::kFlight: {
          // Flight-recorder dump (redundancy miscompare black box or the
          // worker's dying context); the payload is a complete single-line
          // "higpu.flight/1" object, embedded verbatim.
          const Flight msg = decode<Flight>(frame.payload);
          if (progress.journal)
            progress.journal->add_aux("{\"flight\":{\"worker\":" +
                                      std::to_string(w.id) +
                                      ",\"dump\":" + msg.json + "}}");
          break;
        }
        default:
          break;  // kWork/kShutdown are coordinator->worker only
      }
    };

    while (!progress.done(set.size()) && !progress.stopped) {
      // Chaos: SIGKILL one live worker once enough results have landed,
      // preferring one with a unit in flight so the kill lands mid-unit.
      if (!chaos_done && accepted_before_chaos >= config.chaos_kill_after) {
        WorkerProc* victim = nullptr;
        for (WorkerProc& w : fleet)
          if (w.alive && (victim == nullptr || (w.busy() && !victim->busy())))
            victim = &w;
        if (victim != nullptr) {
          ::kill(victim->pid, SIGKILL);  // death surfaces as EOF below
          chaos_done = true;
        }
      }

      std::vector<pollfd> pfds;
      std::vector<size_t> owner;
      for (size_t i = 0; i < fleet.size(); ++i)
        if (fleet[i].alive) {
          pfds.push_back({fleet[i].fd, POLLIN, 0});
          owner.push_back(i);
        }
      if (pfds.empty()) {
        // Whole fleet is gone: finish the campaign inline rather than
        // abandoning it.
        for (std::deque<Task>& shard : shards)
          for (const Task& t : shard) {
            if (progress.stopped) break;
            progress.run_inline(set, t);
          }
        break;
      }
      ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);

      for (size_t p = 0; p < pfds.size(); ++p) {
        WorkerProc& w = fleet[owner[p]];
        if (!w.alive) continue;
        if (pfds[p].revents & POLLIN) {
          try {
            Frame frame;
            if (!recv_frame(w.fd, &frame)) {
              mark_dead(w);
              continue;
            }
            handle_frame(w, frame);
          } catch (const std::exception&) {
            mark_dead(w);  // torn frame / garbage / bad record
          }
        } else if (pfds[p].revents & (POLLHUP | POLLERR | POLLNVAL)) {
          mark_dead(w);
        }
      }

      const auto deadline =
          std::chrono::milliseconds(config.heartbeat_timeout_ms);
      const auto now = Clock::now();
      for (WorkerProc& w : fleet)
        if (w.alive && config.heartbeat_timeout_ms > 0 &&
            now - w.last_heard > deadline)
          mark_dead(w);  // hung or wedged: heartbeats stopped

      // Idle-but-ready workers pick up stolen work freed by deaths.
      for (WorkerProc& w : fleet) dispatch(w);
    }

    const bool crashed = progress.stopped;
    for (WorkerProc& w : fleet) {
      if (!w.alive) continue;
      if (crashed) {
        ::kill(w.pid, SIGKILL);  // simulated coordinator crash: no goodbyes
      } else {
        try {
          send_frame(w.fd, Msg::kShutdown, {});
        } catch (const WireError&) {
        }
      }
      reap(w);
    }
  }

  // ---- Assemble the campaign view (set order).
  report.stopped_early = progress.stopped;
  report.executed = progress.executed;
  report.campaign.jobs = std::max<u32>(1, config.workers);
  report.campaign.results.reserve(set.size());
  for (u32 i = 0; i < set.size(); ++i) {
    const auto it = progress.results.find(i);
    if (it != progress.results.end()) {
      report.campaign.results.push_back(it->second);
    } else {
      exp::ScenarioResult r;
      r.index = i;
      r.workload = set[i].workload;
      r.label = set[i].label();
      r.ok = false;
      r.error = "not executed (campaign stopped early)";
      report.campaign.results.push_back(std::move(r));
    }
  }
  report.campaign.wall_sec =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return report;
}

}  // namespace higpu::dist
