#include "exp/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "common/table.h"
#include "exp/result_io.h"
#include "exp/units.h"

namespace higpu::exp {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

bool ScenarioResult::deterministic_fields_equal(
    const ScenarioResult& other) const {
  const auto deterministic = [](ScenarioResult r) {
    visit_fields(r, [](const char*, auto& f, FieldTag tag = FieldTag::kNone) {
      if (tag == FieldTag::kNotDeterministic) f = {};
    });
    return r;
  };
  return deterministic(*this) == deterministic(other);
}

namespace {

/// Fill `r`'s verdicts, metrics and fault outcome from the scenario's state
/// at the moment its session reported `srep`.
void harvest(ScenarioResult& r, const ScenarioSpec& spec,
             runtime::Device& dev, const workloads::Workload& w,
             const core::ExecSession& session,
             const fault::FaultInjector& injector,
             const core::ExecSession::Report& srep) {
  r.verified = w.verify();
  r.dcls_match = session.all_unanimous();
  r.majority_ok = session.all_safe();
  r.comparisons = session.comparisons();
  r.mismatches = session.mismatches();
  r.faulty_copy = session.faulty_copy();
  r.n_copies = session.copies();
  r.attempts = srep.attempts;
  r.recovered = srep.attempts > 1 && srep.success;
  r.degraded = srep.degraded;
  r.ftti_met = srep.budget.met();
  r.response_ns = srep.total_ns;
  r.achieved_asil = srep.asil;
  r.kernel_cycles = session.kernel_cycles();
  r.elapsed_ns = dev.elapsed_ns();
  r.ff_cycles = dev.gpu().fast_forwarded_cycles();
  r.sim_wall_sec = dev.sim_wall_seconds();
  if (spec.redundancy.redundant())
    r.diversity = core::analyze_block_diversity(dev.gpu().block_records(),
                                                session.all_copy_pairs());
  r.stats = dev.gpu().collect_stats();
  r.sm_profile = dev.gpu().sm_profile();
  r.corruptions = injector.corruptions();
  r.diverted_blocks = injector.diverted_blocks();
  // A retry that came back clean still *detected* the fault on an
  // earlier attempt — that must classify as kDetected, never kMasked.
  const bool detected = !session.all_unanimous() || r.attempts > 1;
  r.outcome = fault::classify(!detected, r.verified);
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec, u32 index,
                            const ScenarioProbe& probe,
                            const ScenarioProbe& pre_run, SnapshotIo* snap) {
  ScenarioResult r;
  r.index = index;
  r.label = spec.label();
  r.workload = spec.workload;
  r.fault_active = spec.fault.active();

  const auto t0 = Clock::now();
  try {
    spec.validate();

    workloads::WorkloadPtr w = workloads::make(spec.workload);
    w->setup(spec.scale, spec.seed);

    runtime::Device dev(spec.gpu, spec.platform);
    if (spec.ckpt.active()) dev.set_checkpoint_policy(spec.ckpt);
    if (snap != nullptr) {
      if (!snap->capture_targets.empty())
        dev.set_checkpoint_targets(snap->capture_targets);
      if (snap->resume != nullptr) dev.arm_resume(snap->resume);
      if (snap->keep_round) dev.keep_last_round();
      if (snap->replay.exit != nullptr) dev.offer_round(snap->replay);
    }
    fault::FaultInjector injector;
    if (spec.fault.active()) {
      spec.fault.arm(injector);
      dev.gpu().set_fault_hook(&injector);
    }

    core::ExecSession session(dev, spec.session_config());
    if (pre_run) pre_run(dev, *w, session);
    workloads::RunContext ctx(session);
    // The Recovery::kNone sibling's run ends where this run's first attempt
    // does: harvest its result there, before recovery changes anything.
    std::function<void(const core::ExecSession::Report&)> first_attempt;
    if (snap != nullptr && snap->sibling != nullptr)
      first_attempt = [&](const core::ExecSession::Report& first) {
        ScenarioResult s = r;
        s.index = snap->sibling_index;
        s.label = snap->sibling->label();
        harvest(s, *snap->sibling, dev, *w, session, injector, first);
        if (snap->divergence_ref != nullptr)
          s.divergence =
              ckpt::first_divergence(*snap->divergence_ref, *dev.snapshot());
        s.ok = true;
        s.wall_sec = seconds_since(t0);
        snap->sibling_result = std::move(s);
      };
    // The session owns the recovery loop: detect -> re-execute -> FTTI
    // accounting, for every workload (not just ad-hoc bodies).
    const core::ExecSession::Report srep = session.run(
        [&](core::ExecSession&) { w->run(ctx); }, first_attempt);
    // The probe fires directly after the workload's (possibly retried)
    // run, before the result harvest below, so pre_run/probe pairs bracket
    // exactly the workload's device flow (engine benches time this
    // interval).
    if (probe) probe(dev, *w, session);

    harvest(r, spec, dev, *w, session, injector, srep);
    if (snap != nullptr) {
      snap->capture_targets = dev.targets();  // canonical sorted order
      snap->captured = dev.target_snapshots();
      snap->final_state = dev.snapshot();
      snap->round = dev.last_round();
      if (snap->divergence_ref != nullptr)
        r.divergence =
            ckpt::first_divergence(*snap->divergence_ref, *snap->final_state);
    }
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.wall_sec = seconds_since(t0);
  return r;
}

u32 CampaignResult::failed() const {
  u32 n = 0;
  for (const ScenarioResult& r : results)
    if (!r.passed()) ++n;
  return n;
}

bool CampaignResult::all_passed() const { return failed() == 0; }

std::string CampaignResult::to_json() const {
  JsonWriter jw;
  jw.begin_object();
  jw.field("schema", std::string("higpu.campaign/2"));
  jw.field("scenarios", static_cast<u64>(results.size()));
  jw.field("jobs", jobs);
  jw.field("wall_sec", wall_sec);
  jw.field("scenarios_per_sec", scenarios_per_sec());
  jw.field("failed", failed());
  jw.key("results");
  jw.begin_array();
  for (const ScenarioResult& r : results) {
    jw.begin_object();
    write_members(jw, r);
    jw.field("passed", r.passed());
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();
  return jw.str() + "\n";
}

namespace {

/// Emit (column, cell) for each of `rec`'s fields not tagged
/// kNotDeterministic, in visit_fields order: a nested record's fields as
/// "<name>.<field>", a StatSet as one "<name>.<counter>" column per entry
/// of `counters` (0 where the set lacks it), a vector as its JSON text.
template <FieldRecord T, class Emit>
void csv_cells(const T& rec, const std::string& prefix,
               const std::vector<std::string>& counters, const Emit& emit) {
  visit_fields(rec, [&](const char* name, const auto& f,
                        FieldTag tag = FieldTag::kNone) {
    using F = std::remove_cvref_t<decltype(f)>;
    if (tag == FieldTag::kNotDeterministic) return;
    const std::string col = prefix + name;
    if constexpr (FieldRecord<F>) {
      csv_cells(f, col + ".", counters, emit);
    } else if constexpr (std::is_same_v<F, StatSet>) {
      for (const std::string& c : counters)
        emit(col + "." + c, std::to_string(f.get(c)));
    } else if constexpr (std::is_same_v<F, std::string>) {
      emit(col, f);
    } else if constexpr (std::is_enum_v<F>) {
      emit(col, name_of(f));
    } else {
      JsonWriter jw = JsonWriter::compact();
      write_value(jw, f);
      emit(col, jw.str());
    }
  });
}

}  // namespace

std::string CampaignResult::to_csv() const {
  std::set<std::string> seen;
  for (const ScenarioResult& r : results)
    for (const auto& [name, value] : r.stats.entries()) seen.insert(name);
  const std::vector<std::string> counters(seen.begin(), seen.end());

  std::vector<std::string> header;
  csv_cells(ScenarioResult{}, "", counters,
            [&](const std::string& col, const std::string&) {
              header.push_back(col);
            });
  header.push_back("passed");
  TextTable table(std::move(header));
  for (const ScenarioResult& r : results) {
    std::vector<std::string> row;
    csv_cells(r, "", counters, [&](const std::string&, std::string cell) {
      row.push_back(std::move(cell));
    });
    row.push_back(r.passed() ? "true" : "false");
    table.add_row(std::move(row));
  }
  return table.render_csv();
}

CampaignResult CampaignRunner::run(const ScenarioSet& set) const {
  set.validate_all();

  CampaignResult out;
  out.results.resize(set.size());
  u32 jobs = cfg_.jobs != 0 ? cfg_.jobs : std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  jobs = std::min<u32>(jobs, set.empty() ? 1 : static_cast<u32>(set.size()));
  out.jobs = jobs;

  // Work units: normally one scenario each; under snapshot fast-forward,
  // scenarios differing only in their fault plan and recovery strategy
  // coalesce into one unit that shares a clean base simulation (>= 2
  // faulted members make the base run worthwhile). Unit discovery is
  // deterministic, and results are stored at each scenario's index, so
  // campaign output remains bit-identical regardless of jobs or
  // fast-forward.
  const std::vector<WorkUnit> units =
      plan_units(set, cfg_.snapshot_fast_forward);

  const auto t0 = Clock::now();
  std::atomic<size_t> next{0};
  std::mutex report_mutex;

  const ResultSink store = [&](ScenarioResult r) {
    if (cfg_.on_result) {
      std::lock_guard<std::mutex> lock(report_mutex);
      cfg_.on_result(r);
    }
    out.results[r.index] = std::move(r);
  };
  auto worker = [&] {
    for (size_t u = next.fetch_add(1); u < units.size();
         u = next.fetch_add(1))
      run_unit(set, units[u].members, store);
  };

  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (u32 t = 0; t < jobs; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }
  out.wall_sec = seconds_since(t0);
  return out;
}

}  // namespace higpu::exp
