#include "dist/worker.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/log.h"
#include "core/exec.h"
#include "exp/campaign.h"
#include "exp/result_io.h"
#include "obs/trace.h"
#include "runtime/device.h"

namespace higpu::dist {

namespace {

/// Serializes frame writes: the heartbeat thread and the result path share
/// one socket, and an interleaved frame would desynchronize the stream.
class FrameSender {
 public:
  explicit FrameSender(int fd) : fd_(fd) {}
  void send(Msg type, const std::vector<u8>& payload) {
    std::lock_guard<std::mutex> lock(mu_);
    send_frame(fd_, type, payload);
  }

 private:
  int fd_;
  std::mutex mu_;
};

}  // namespace

void run_item(const Work& item, const exp::ResultSink& emit,
              const exp::ScenarioProbe& probe,
              const exp::ScenarioProbe& pre_run) {
  exp::ScenarioSet set;
  for (const Work::Member& m : item.members) set.add(m.spec);
  std::vector<size_t> members(set.size());
  for (size_t k = 0; k < members.size(); ++k) members[k] = k;
  // run_unit numbers results by position in the local set.
  exp::run_unit(
      set, members,
      [&](exp::ScenarioResult r) {
        r.index = item.members[r.index].index;
        emit(std::move(r));
      },
      probe, pre_run);
}

int worker_main(int fd, u32 worker_id, int heartbeat_interval_ms) {
  FrameSender sender(fd);
  sender.send(Msg::kHello, encode(Hello{.worker_id = worker_id}));

  // Redirect this process's log lines to the coordinator, which lands them
  // in the campaign journal tagged with this worker's prefix.
  std::string prefix = "w";
  prefix += std::to_string(worker_id);
  set_log_prefix(prefix);
  set_log_sink([&sender](LogLevel level, const std::string& line) {
    try {
      sender.send(Msg::kLog, encode(Log{static_cast<u32>(level), line}));
    } catch (const WireError&) {
      // Coordinator gone; dropping the line beats crashing the logger.
    }
  });

  // Worker-lifecycle trace: which units this process touched, in order.
  // Shipped as the final flight frame if the worker dies, so the
  // coordinator's journal records what it was doing.
  obs::Tracer wtr;
  const u32 wtrack = wtr.track("worker", obs::kPidHost);

  std::atomic<bool> stop{false};
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  std::thread heartbeat;
  if (heartbeat_interval_ms > 0) {
    heartbeat = std::thread([&] {
      std::unique_lock<std::mutex> lock(hb_mu);
      while (!stop.load()) {
        hb_cv.wait_for(lock, std::chrono::milliseconds(heartbeat_interval_ms));
        if (stop.load()) break;
        try {
          sender.send(Msg::kHeartbeat, {});
        } catch (const WireError&) {
          return;  // coordinator gone; main loop will see it too
        }
      }
    });
  }

  // Every simulated run of a unit but its base run gets a fresh tracer, so
  // redundancy miscompares leave a flight-recorder dump; any dumps are
  // shipped to the coordinator before that member's result frame. A member
  // answered without a device of its own (from the base result, or from
  // its rollback twin's first attempt) ships none: a DCLS twin's miscompare
  // is the simulated run's first dump.
  std::optional<obs::Tracer> tracer;
  const exp::ScenarioProbe pre_run = [&tracer](runtime::Device& dev,
                                               workloads::Workload&,
                                               core::ExecSession&) {
    dev.set_tracer(&tracer.emplace());
  };
  const exp::ScenarioProbe probe = [&sender](runtime::Device&,
                                             workloads::Workload&,
                                             core::ExecSession& session) {
    for (const std::string& dump : session.flight_dumps()) {
      try {
        sender.send(Msg::kFlight, encode(Flight{dump}));
      } catch (const WireError&) {
        return;  // coordinator gone; the result send will fail loudly
      }
    }
  };

  int exit_code = 0;
  try {
    Frame frame;
    // EOF without kShutdown = coordinator died; exiting quietly is right
    // either way.
    while (recv_frame(fd, &frame)) {
      if (frame.type == Msg::kShutdown) break;
      if (frame.type != Msg::kWork) continue;  // kHeartbeat etc.: ignore
      const Work item = decode<Work>(frame.payload);
      wtr.instant(wtrack, obs::Ev::kUnitShip, log_monotonic_ms() * 1000000ull,
                  item.unit_id, item.members.size());
      // One kResult per member, as each completes.
      const auto emit = [&](const exp::ScenarioResult& r) {
        wtr.instant(wtrack, obs::Ev::kUnitResult,
                    log_monotonic_ms() * 1000000ull, item.unit_id, r.index);
        sender.send(Msg::kResult, encode(Result{item.unit_id, r.index,
                                                exp::result_to_jsonl(r)}));
      };
      run_item(item, emit, probe, pre_run);
    }
  } catch (const std::exception& e) {
    wtr.instant(wtrack, obs::Ev::kWorkerDeath, log_monotonic_ms() * 1000000ull,
                worker_id, 0);
    try {
      // The black box: last worker-lifecycle events, shipped before exit.
      sender.send(Msg::kFlight, encode(Flight{wtr.flight_json(64)}));
      sender.send(Msg::kLog,
                  encode(Log{static_cast<u32>(LogLevel::kError),
                             "campaign_worker " + std::to_string(worker_id) +
                                 " fatal: " + e.what()}));
    } catch (const WireError&) {
      // Coordinator unreachable; stderr below is all that's left.
    }
    std::fprintf(stderr, "campaign_worker %u: %s\n", worker_id, e.what());
    exit_code = 1;
  }
  set_log_sink(nullptr);  // sender dies with this frame; detach first
  set_log_prefix("");

  stop.store(true);
  hb_cv.notify_all();
  if (heartbeat.joinable()) heartbeat.join();
  return exit_code;
}

}  // namespace higpu::dist
