#include "serve/engine.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/table.h"
#include "safety/bist.h"
#include "sched/edf.h"

namespace higpu::serve {

const char* degrade_reason_name(DegradeReason r) {
  switch (r) {
    case DegradeReason::kDeadlinePressure: return "deadline-pressure";
    case DegradeReason::kSessionDegrade: return "session-degrade";
    case DegradeReason::kRecovered: return "recovered";
  }
  return "?";
}

void ServeSpec::validate() const {
  traffic.validate();
  for (const TenantSpec& t : traffic.tenants)
    t.redundancy.validate(gpu, policy);
}

std::string ServeSpec::label() const {
  std::ostringstream os;
  os << traffic.label() << ':' << sched::policy_name(policy);
  if (bist_interval_ns != 0) os << ":bist";
  if (ckpt_interval_cycles != 0) os << ":ckpt" << ckpt_interval_cycles;
  return os.str();
}

core::RedundancySpec degrade(const core::RedundancySpec& base, u32 level) {
  core::RedundancySpec eff = base;
  eff.n_copies = base.n_copies > level ? base.n_copies - level : 1;
  if (eff.n_copies < 3 &&
      eff.compare == core::RedundancySpec::Compare::kMajorityVote)
    eff.compare = core::RedundancySpec::Compare::kBitwise;
  if (eff.n_copies == 1)
    eff.recovery = core::RedundancySpec::Recovery::kNone;
  // Explicit per-copy starts were chosen for the full copy count; let the
  // even auto-spread re-derive diversity for the reduced one.
  eff.srrs_starts.clear();
  return eff;
}

namespace {

// Overload policy: the ladder always degrades under deadline pressure, and
// expired requests are always shed.
/// Hard cap on queued requests; the latest-deadline entries are shed first
/// when it overflows.
constexpr u32 kMaxQueueDepth = 64;
/// Hysteresis: consecutive on-time completions (with the queue at or below
/// kLowWatermark) required before stepping one level back up.
constexpr u32 kRecoverAfter = 4;
constexpr u32 kLowWatermark = 1;

/// Mutable serving state for one run_serve() invocation.
struct Loop {
  const ServeSpec& spec;
  runtime::Device dev;
  std::vector<Request> requests;
  std::vector<u32> queue;  // indices into requests, unordered
  u32 next_arrival = 0;    // first not-yet-admitted request
  u32 level = 0;           // current degrade level (0 = full redundancy)
  u32 max_level = 0;
  u32 consecutive_good = 0;
  u64 next_bist_ns = 0;
  /// EWMA of observed service time per tenant (prediction for admission).
  std::vector<u64> est_service_ns;
  ServeResult res;
  u64 captures_counted = 0;  // dev.policy_captures() already in res

  // Observability (pure observers on the modelled timeline).
  obs::Tracer* tr = nullptr;
  u32 trk_req = 0;  // host track: kReqEnqueue/kReqServe/kReqShed
  u32 trk_ctl = 0;  // host track: kDegrade

  explicit Loop(const ServeSpec& s)
      : spec(s), dev(s.gpu, s.platform), requests(s.traffic.generate()) {
    for (const TenantSpec& t : s.traffic.tenants) {
      max_level = std::max(max_level, t.redundancy.n_copies - 1);
      TenantStats ts;
      ts.name = t.name;
      res.tenants.push_back(std::move(ts));
      est_service_ns.push_back(0);
    }
    res.by_level.resize(max_level + 1);
    res.label = s.label();
    for (const Request& r : requests) ++res.tenants[r.tenant].offered;
    if (s.ckpt_interval_cycles != 0)
      dev.set_checkpoint_policy(
          ckpt::CheckpointPolicy::interval(s.ckpt_interval_cycles));
    next_bist_ns = s.bist_interval_ns;  // first BIST one period in
    if (s.tracer != nullptr) {
      tr = s.tracer;
      dev.set_tracer(tr);
      trk_req = tr->track("serve.requests", obs::kPidHost);
      trk_ctl = tr->track("serve.control", obs::kPidHost);
    }
  }

  /// Record the queue depth after any change: the over-time series and the
  /// high watermark (with the modelled instant it was first reached) both
  /// key off this one observation point.
  void note_queue(u64 now) {
    const u64 depth = queue.size();
    if (res.queue_depth_series.empty() ||
        res.queue_depth_series.back().second != depth)
      res.queue_depth_series.emplace_back(now, static_cast<u32>(depth));
    if (depth > res.max_queue_depth) {
      res.max_queue_depth = depth;
      res.queue_high_watermark_ns = now;
    }
  }

  void admit(u64 now) {
    while (next_arrival < requests.size() &&
           requests[next_arrival].arrival_ns <= now) {
      const Request& r = requests[next_arrival];
      if (tr != nullptr)
        tr->instant(trk_req, obs::Ev::kReqEnqueue, r.arrival_ns, r.id,
                    r.tenant);
      queue.push_back(next_arrival);
      ++next_arrival;
    }
    note_queue(now);
  }

  void run_bist_if_due(u64 now) {
    if (spec.bist_interval_ns == 0 || now < next_bist_ns) return;
    const safety::BistResult b = safety::run_scheduler_bist(dev, spec.policy);
    ++res.bist_runs;
    if (!b.pass) ++res.bist_failures;
    // One catch-up run covers any number of missed periods (a long request
    // must not trigger a BIST burst afterwards).
    while (next_bist_ns <= dev.elapsed_ns())
      next_bist_ns += spec.bist_interval_ns;
  }

  void transition(u64 t, u32 to, DegradeReason reason) {
    DegradeTransition rec;
    rec.t_ns = t;
    rec.from_level = level;
    rec.to_level = to;
    rec.reason = reason;
    rec.queue_depth = static_cast<u32>(queue.size());
    res.transitions.push_back(rec);
    if (tr != nullptr)
      tr->instant(trk_ctl, obs::Ev::kDegrade, t, to, static_cast<u64>(reason));
    level = to;
    consecutive_good = 0;
  }

  void shed(u64 now) {
    for (size_t i = 0; i < queue.size();) {
      const Request& r = requests[queue[i]];
      if (r.deadline_ns < now) {
        ++res.tenants[r.tenant].dropped_expired;
        ++res.dropped;
        if (tr != nullptr)
          tr->instant(trk_req, obs::Ev::kReqShed, now, r.id, 0);
        queue[i] = queue.back();
        queue.pop_back();
      } else {
        ++i;
      }
    }
    while (queue.size() > kMaxQueueDepth) {
      // Shed the least urgent entry (latest deadline; highest id breaks the
      // tie so the choice is deterministic).
      size_t worst = 0;
      for (size_t i = 1; i < queue.size(); ++i) {
        const Request& a = requests[queue[i]];
        const Request& b = requests[queue[worst]];
        if (a.deadline_ns > b.deadline_ns ||
            (a.deadline_ns == b.deadline_ns && a.id > b.id))
          worst = i;
      }
      const Request& r = requests[queue[worst]];
      ++res.tenants[r.tenant].dropped_overflow;
      ++res.dropped;
      if (tr != nullptr) tr->instant(trk_req, obs::Ev::kReqShed, now, r.id, 1);
      queue[worst] = queue.back();
      queue.pop_back();
    }
    note_queue(now);
  }

  /// EDF over the queue: earliest absolute deadline, lowest id on ties.
  u32 pop_edf() {
    size_t best = 0;
    for (size_t i = 1; i < queue.size(); ++i) {
      const Request& a = requests[queue[i]];
      const Request& b = requests[queue[best]];
      if (a.deadline_ns < b.deadline_ns ||
          (a.deadline_ns == b.deadline_ns && a.id < b.id))
        best = i;
    }
    const u32 idx = queue[best];
    queue[best] = queue.back();
    queue.pop_back();
    return idx;
  }

  /// Add the device's policy captures since the last call. The device
  /// counter only goes up, so captures the interval ring evicted or a
  /// session cleared are counted too.
  void count_checkpoints() {
    res.checkpoints_captured += dev.policy_captures() - captures_counted;
    captures_counted = dev.policy_captures();
  }

  void serve_one(u32 idx) {
    const Request& req = requests[idx];
    const TenantSpec& tenant = spec.traffic.tenants[req.tenant];
    TenantStats& ts = res.tenants[req.tenant];
    const u64 start = dev.elapsed_ns();

    // Overload prediction: would this request, started now, finish past its
    // deadline? One ladder step per decision — the next request re-decides.
    const u64 est = est_service_ns[req.tenant];
    if (level < max_level && est != 0 && start + est > req.deadline_ns)
      transition(start, level + 1, DegradeReason::kDeadlinePressure);

    const core::RedundancySpec eff = degrade(tenant.redundancy, level);
    core::ExecSession::Config cfg;
    cfg.policy = spec.policy;
    cfg.redundancy = eff;
    // Deadline-aware block dispatch: every copy stream of this request
    // carries the request's absolute deadline. The factory re-arms the
    // deadlines on every recovery attempt, keeping retries deterministic.
    const u32 copies = eff.n_copies;
    const u64 abs_deadline = req.deadline_ns;
    const sched::Policy pol = spec.policy;
    cfg.scheduler_factory = [copies, abs_deadline, pol]() {
      auto s = std::make_unique<sched::EdfKernelScheduler>(
          sched::EdfKernelScheduler::placement_for(pol));
      for (u32 c = 0; c < copies; ++c)
        s->set_stream_deadline(c, abs_deadline);
      return s;
    };

    workloads::WorkloadPtr w = workloads::make(tenant.workload);
    // Per-request input seed: deterministic, distinct per request.
    w->setup(tenant.scale, spec.traffic.seed + 0x9E37u * (req.id + 1));

    core::ExecSession session(dev, cfg);
    workloads::RunContext ctx(session);
    const core::ExecSession::Report rep =
        session.run([&](core::ExecSession&) { w->run(ctx); });
    if (!w->verify()) ++res.verify_failures;

    const u64 finish = dev.elapsed_ns();
    Completion c;
    c.request_id = req.id;
    c.tenant = req.tenant;
    c.level = level;
    c.start_ns = start;
    c.finish_ns = finish;
    c.response_ns = finish - req.arrival_ns;
    c.deadline_met = finish <= req.deadline_ns;
    res.completions.push_back(c);

    ++res.served;
    ++ts.served;
    if (tr != nullptr)
      tr->emit(trk_req, obs::Ev::kReqServe, start, finish - start, req.id,
               level);
    if (!c.deadline_met) {
      ++ts.deadline_misses;
      ++res.deadline_misses;
    }
    if (level > 0) ++ts.degraded_served;
    ts.response_ns.sample(static_cast<i64>(c.response_ns));
    ts.queue_wait_ns.sample(static_cast<i64>(start - req.arrival_ns));
    ts.ftti_slack_ns.sample(static_cast<i64>(eff.ftti_ns) -
                            static_cast<i64>(rep.budget.response_ns()));
    res.by_level[level].sample(static_cast<i64>(c.response_ns));
    res.busy_ns += finish - start;

    // Service-time estimate (EWMA, alpha = 1/2): level-agnostic on purpose —
    // a degraded service time predicting the full-redundancy cost errs
    // toward degrading early, which is the safe direction under overload.
    est_service_ns[req.tenant] =
        est == 0 ? (finish - start) : (est + (finish - start)) / 2;

    // Count policy captures, then drop them: snapshots of a served request
    // must never feed the next one's rollback.
    count_checkpoints();
    dev.clear_checkpoints();

    // Session-detected degrade (Recovery::kDegrade engaged): take a ladder
    // step too — the fault already cost this request its redundancy budget.
    if (rep.degraded && level < max_level)
      transition(finish, level + 1, DegradeReason::kSessionDegrade);

    // Hysteretic recovery: step back up only after a run of on-time
    // completions with the queue (nearly) drained.
    admit(finish);
    const bool good = c.deadline_met && queue.size() <= kLowWatermark;
    if (good) {
      ++consecutive_good;
      if (level > 0 && consecutive_good >= kRecoverAfter)
        transition(finish, level - 1, DegradeReason::kRecovered);
    } else {
      consecutive_good = 0;
    }
  }

  ServeResult run() {
    while (next_arrival < requests.size() || !queue.empty()) {
      u64 now = dev.elapsed_ns();
      admit(now);
      run_bist_if_due(now);
      if (queue.empty()) {
        // Idle: jump to the next arrival (or an earlier pending BIST).
        u64 wake = requests[next_arrival].arrival_ns;
        if (spec.bist_interval_ns != 0) wake = std::min(wake, next_bist_ns);
        now = dev.elapsed_ns();
        if (wake > now) dev.host_delay(wake - now);
        continue;
      }
      shed(dev.elapsed_ns());
      if (queue.empty()) continue;
      const u32 idx = pop_edf();
      note_queue(dev.elapsed_ns());
      serve_one(idx);
    }
    res.span_ns = dev.elapsed_ns();
    count_checkpoints();  // anything captured after the last request's count
    return std::move(res);
  }
};

void emit_percentiles(JsonWriter& jw, const char* key, const Percentiles& p) {
  jw.key(key);
  jw.begin_object();
  jw.field("count", p.count());
  jw.field("min", p.min());
  jw.field("max", p.max());
  jw.field("mean", p.mean());
  jw.field("p50", p.p50());
  jw.field("p95", p.p95());
  jw.field("p99", p.p99());
  jw.field("p999", p.p999());
  jw.end_object();
}

}  // namespace

ServeResult run_serve(const ServeSpec& spec) {
  spec.validate();
  Loop loop(spec);
  return loop.run();
}

std::string ServeResult::to_json(const ServeSpec& spec) const {
  JsonWriter jw;
  jw.begin_object();
  jw.field("schema", "higpu.serve/1");
  jw.field("label", label);
  jw.field("pattern", pattern_name(spec.traffic.pattern));
  jw.field("seed", spec.traffic.seed);
  jw.field("policy", sched::policy_name(spec.policy));
  jw.field("offered_rps", spec.traffic.offered_rps);
  jw.field("served", served);
  jw.field("dropped", dropped);
  jw.field("deadline_misses", deadline_misses);
  jw.field("verify_failures", verify_failures);
  jw.field("max_queue_depth", max_queue_depth);
  jw.field("queue_high_watermark_ns", queue_high_watermark_ns);
  jw.field("bist_runs", bist_runs);
  jw.field("bist_failures", bist_failures);
  jw.field("checkpoints_captured", checkpoints_captured);
  jw.field("span_ns", span_ns);
  jw.field("busy_ns", busy_ns);
  jw.field("utilization", utilization());
  jw.field("sustained_rps", sustained_rps());

  jw.key("tenants");
  jw.begin_array();
  for (const TenantStats& t : tenants) {
    jw.begin_object();
    jw.field("name", t.name);
    jw.field("offered", t.offered);
    jw.field("served", t.served);
    jw.field("dropped_expired", t.dropped_expired);
    jw.field("dropped_overflow", t.dropped_overflow);
    jw.field("deadline_misses", t.deadline_misses);
    jw.field("degraded_served", t.degraded_served);
    emit_percentiles(jw, "response_ns", t.response_ns);
    emit_percentiles(jw, "queue_wait_ns", t.queue_wait_ns);
    emit_percentiles(jw, "ftti_slack_ns", t.ftti_slack_ns);
    jw.end_object();
  }
  jw.end_array();

  jw.key("by_level");
  jw.begin_array();
  for (u32 l = 0; l < by_level.size(); ++l) {
    jw.begin_object();
    jw.field("level", l);
    emit_percentiles(jw, "response_ns", by_level[l]);
    jw.end_object();
  }
  jw.end_array();

  jw.key("queue_depth_series");
  jw.begin_array();
  for (const auto& [t_ns, depth] : queue_depth_series) {
    jw.begin_object();
    jw.field("t_ns", t_ns);
    jw.field("depth", depth);
    jw.end_object();
  }
  jw.end_array();

  jw.key("transitions");
  jw.begin_array();
  for (const DegradeTransition& tr : transitions) {
    jw.begin_object();
    jw.field("t_ns", tr.t_ns);
    jw.field("from_level", tr.from_level);
    jw.field("to_level", tr.to_level);
    jw.field("reason", degrade_reason_name(tr.reason));
    jw.field("queue_depth", tr.queue_depth);
    jw.end_object();
  }
  jw.end_array();

  jw.end_object();
  return jw.str();
}

std::string ServeResult::to_csv() const {
  TextTable t({"tenant", "offered", "served", "dropped_expired",
               "dropped_overflow", "deadline_misses", "degraded_served",
               "response_p50_ns", "response_p95_ns", "response_p99_ns",
               "response_p999_ns", "ftti_slack_p50_ns", "ftti_slack_min_ns"});
  for (const TenantStats& ts : tenants) {
    t.add_row({ts.name, std::to_string(ts.offered),
               std::to_string(ts.served), std::to_string(ts.dropped_expired),
               std::to_string(ts.dropped_overflow),
               std::to_string(ts.deadline_misses),
               std::to_string(ts.degraded_served),
               std::to_string(ts.response_ns.p50()),
               std::to_string(ts.response_ns.p95()),
               std::to_string(ts.response_ns.p99()),
               std::to_string(ts.response_ns.p999()),
               std::to_string(ts.ftti_slack_ns.p50()),
               std::to_string(ts.ftti_slack_ns.min())});
  }
  return t.render_csv();
}

}  // namespace higpu::serve
