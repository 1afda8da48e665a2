// The worker side of the distributed campaign service.
//
// A worker is a child process holding one end of an AF_UNIX socketpair. Its
// loop is deliberately dumb: say Hello, then for every kWork frame decode
// the unit's specs, run them through the exact same exp::run_unit the
// in-process CampaignRunner uses (a group's clean base run, then each fault
// fork against the snapshots it captured), and stream each member's result
// back as a higpu.campaign.jsonl/1 record. All policy — sharding, stealing,
// retry, journaling — lives in the coordinator; determinism lives in the
// simulator. A background thread emits kHeartbeat frames so the
// coordinator can distinguish "busy simulating" from "dead".
//
// A scenario that throws is not a worker crash: the worker reports it as a
// failed ScenarioResult (ok=false, error set), same as CampaignRunner.
#pragma once

#include "common/types.h"
#include "dist/protocol.h"
#include "exp/units.h"

namespace higpu::dist {

/// Run the unit `item` carries through exp::run_unit on the calling thread.
/// `emit` receives each member's result, numbered by its campaign index.
void run_item(const Work& item, const exp::ResultSink& emit,
              const exp::ScenarioProbe& probe = nullptr,
              const exp::ScenarioProbe& pre_run = nullptr);

/// Run the worker protocol loop over `fd` until kShutdown or EOF.
/// `worker_id` is echoed in the Hello frame. `heartbeat_interval_ms` <= 0
/// disables the heartbeat thread (useful under test).
/// Returns the process exit code (0 on clean shutdown).
int worker_main(int fd, u32 worker_id, int heartbeat_interval_ms = 200);

}  // namespace higpu::dist
