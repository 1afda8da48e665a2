// Command-line campaign runner: execute any of the 19 Rodinia-style
// workloads — or a whole sweep of them — under any policy/redundancy
// configuration and print the metrics the paper reports. Everything is a
// ScenarioSpec underneath; multiple scenarios run as a parallel campaign.
//
//   $ ./run_workload hotspot --policy=srrs
//   $ ./run_workload cfd --policy=half --baseline --scale=test --seed=7
//   $ ./run_workload --fig4 --sweep-policies --jobs=4 --json=campaign.json
//   $ ./run_workload --list
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/table.h"
#include "dist/coordinator.h"
#include "exp/campaign.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "serve/engine.h"

namespace {

using namespace higpu;

int usage() {
  std::printf(
      "usage: run_workload <name...> [options]\n"
      "       run_workload --all | --fig4 [options]\n"
      "       run_workload --list | --list-workloads\n"
      "options:\n"
      "  --policy=default|half|srrs   scheduling policy (default: srrs)\n"
      "  --sweep-policies             run every policy (overrides --policy)\n"
      "  --baseline                   single copy instead of a DCLS pair\n"
      "  --list-workloads             print every workload with its scales\n"
      "redundancy options (one ExecSession serves every mode):\n"
      "  --redundancy=N               copies: 1=baseline, 2=DCLS, >=3 NMR\n"
      "  --compare=bitwise|vote|tol:E comparison semantics (vote needs N>=3;\n"
      "                               tol:E = float tolerance E, e.g. tol:1e-4)\n"
      "  --recovery=retry:N|rollback:N|degrade\n"
      "                               detect-and-retry (N re-executions),\n"
      "                               checkpoint rollback (N rollbacks), or\n"
      "                               degraded-mode transition\n"
      "  --checkpoint-interval=N      snapshot device state every N cycles\n"
      "                               (labels gain :ckptN; rollback recovery\n"
      "                               uses the checkpoints)\n"
      "  --sweep-redundancy           run base, DCLS, DCLS+retry, TMR-vote,\n"
      "                               TMR-vote+retry (overrides the above)\n"
      "  --verify-only                statically verify every kernel the\n"
      "                               workloads launch, print the JSON\n"
      "                               diagnostic list and exit non-zero on\n"
      "                               any error-severity diagnostic\n"
      "  --scale=test|bench           problem size (default: bench)\n"
      "  --seed=N                     input-generation seed (default: 2019)\n"
      "  --jobs=N                     campaign worker threads (default: 1;\n"
      "                               0 = all hardware threads)\n"
      "  --json=PATH                  write the JSON campaign report\n"
      "  --csv=PATH                   write the CSV campaign report\n"
      "observability (README 'Observability'):\n"
      "  --trace=PATH                 record a Chrome trace-event JSON file\n"
      "                               (higpu.trace/1, Perfetto-loadable);\n"
      "                               single scenario or --serve only\n"
      "  --profile                    print the per-SM cycle-attribution\n"
      "                               table (issued / scoreboard / barrier /\n"
      "                               structural / idle)\n"
      "continuous-serving mode (each <name> becomes one tenant):\n"
      "  --serve                      serve a request stream instead of a\n"
      "                               one-shot campaign (EDF dispatch,\n"
      "                               overload degrade ladder, percentile\n"
      "                               telemetry; --json/--csv emit the\n"
      "                               higpu.serve/1 report)\n"
      "  --serve-pattern=periodic|poisson|bursty   arrivals (default poisson)\n"
      "  --serve-rps=R                offered load, requests/s (default 100)\n"
      "  --serve-duration-ms=N        traffic horizon (default 500)\n"
      "  --serve-max-requests=N       hard request cap (default 64)\n"
      "  --serve-deadline-ms=N        per-request deadline (default 50)\n"
      "  --serve-bist-ms=N            scheduler BIST period (default off)\n"
      "distributed campaign mode (see README 'Distributed campaigns'):\n"
      "  --distributed=N              run the campaign across N forked\n"
      "                               campaign_worker processes (0 = inline\n"
      "                               but still journaled); results are\n"
      "                               bit-identical to --jobs=1\n"
      "  --journal=PATH               append-only higpu.campaign.jsonl/1\n"
      "                               journal, one flushed record per result\n"
      "  --resume=PATH                scan an existing journal and execute\n"
      "                               only the scenarios it is missing\n"
      "  --check-golden               after the distributed run, re-run the\n"
      "                               campaign in-process (jobs=1) and fail\n"
      "                               on any deterministic-field difference\n"
      "  --chaos-kill-after=N         SIGKILL one worker after N worker\n"
      "                               results (tests death redispatch)\n"
      "  --stop-after=N               simulate a coordinator crash after N\n"
      "                               results (resume from the journal)\n"
      "memory-system options (reflected in scenario labels):\n"
      "  --mem-write=wb|wt            L1 write policy (default: wb)\n"
      "  --mem-alloc=wa|nwa           L1 write-miss allocation (default: wa)\n"
      "  --mem-mshr=N                 MSHR entries per SM (default: 32)\n"
      "  --mem-dram-banks=N           DRAM banks per channel (default: 4)\n"
      "  --mem-row-bytes=N            DRAM row-buffer size (default: 2048)\n"
      "  --sweep-mem-policies         run all four write-policy combos\n");
  return 2;
}

u64 parse_number(const std::string& flag, const std::string& s) {
  // Digits only: std::stoull alone would wrap "-5" to 2^64-5.
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    throw std::invalid_argument("bad value '" + s + "' for " + flag +
                                ": expected a non-negative integer");
  try {
    return std::stoull(s);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad value '" + s + "' for " + flag +
                                ": out of range");
  }
}

core::RedundancySpec::Compare parse_compare(const std::string& s,
                                            float* tolerance) {
  if (s == "bitwise") return core::RedundancySpec::Compare::kBitwise;
  if (s == "vote") return core::RedundancySpec::Compare::kMajorityVote;
  if (s.rfind("tol:", 0) == 0) {
    try {
      *tolerance = std::stof(s.substr(4));
    } catch (const std::exception&) {
      throw std::invalid_argument("bad tolerance in --compare=" + s);
    }
    return core::RedundancySpec::Compare::kTolerance;
  }
  throw std::invalid_argument("unknown compare mode '" + s +
                              "'; valid: bitwise vote tol:EPS");
}

void parse_recovery(const std::string& s, core::RedundancySpec* red) {
  if (s.rfind("retry:", 0) == 0) {
    red->recovery = core::RedundancySpec::Recovery::kRetry;
    red->max_retries =
        static_cast<u32>(parse_number("--recovery", s.substr(6)));
    return;
  }
  if (s == "retry") {
    red->recovery = core::RedundancySpec::Recovery::kRetry;
    return;
  }
  if (s.rfind("rollback:", 0) == 0) {
    red->recovery = core::RedundancySpec::Recovery::kRollback;
    red->max_retries =
        static_cast<u32>(parse_number("--recovery", s.substr(9)));
    return;
  }
  if (s == "rollback") {
    red->recovery = core::RedundancySpec::Recovery::kRollback;
    return;
  }
  if (s == "degrade") {
    red->recovery = core::RedundancySpec::Recovery::kDegrade;
    return;
  }
  throw std::invalid_argument("unknown recovery '" + s +
                              "'; valid: retry:N rollback:N degrade");
}

ckpt::CheckpointPolicy parse_checkpoint_interval(const std::string& s) {
  const u64 cycles = parse_number("--checkpoint-interval", s);
  if (cycles == 0)
    throw std::invalid_argument(
        "bad value '0' for --checkpoint-interval: expected a positive cycle "
        "count (e.g. 5000)");
  return ckpt::CheckpointPolicy::interval(cycles);
}

sched::Policy parse_policy(const std::string& s) {
  if (s == "default") return sched::Policy::kDefault;
  if (s == "half") return sched::Policy::kHalf;
  if (s == "srrs") return sched::Policy::kSrrs;
  throw std::invalid_argument("unknown policy '" + s +
                              "'; valid policies: default half srrs");
}

memsys::WritePolicy parse_write_policy(const std::string& s) {
  if (s == "wb") return memsys::WritePolicy::kWriteBack;
  if (s == "wt") return memsys::WritePolicy::kWriteThrough;
  throw std::invalid_argument("bad value '" + s +
                              "' for --mem-write: expected wb or wt");
}

memsys::WriteAlloc parse_write_alloc(const std::string& s) {
  if (s == "wa") return memsys::WriteAlloc::kAllocate;
  if (s == "nwa") return memsys::WriteAlloc::kNoAllocate;
  throw std::invalid_argument("bad value '" + s +
                              "' for --mem-alloc: expected wa or nwa");
}

/// Detailed single-scenario report (the classic run_workload output).
void print_detailed(const exp::ScenarioResult& r) {
  std::printf("scenario        : %s\n", r.label.c_str());
  if (!r.ok) {
    std::printf("error           : %s\n", r.error.c_str());
    return;
  }
  std::printf("kernel cycles   : %llu\n",
              static_cast<unsigned long long>(r.kernel_cycles));
  std::printf("end-to-end time : %.3f ms\n",
              static_cast<double>(r.elapsed_ns) / 1e6);
  std::printf("verified vs CPU : %s\n", r.verified ? "yes" : "NO");
  std::printf("redundancy      : %u cop%s, %u attempt%s, %s (FTTI %s)\n",
              r.n_copies, r.n_copies == 1 ? "y" : "ies", r.attempts,
              r.attempts == 1 ? "" : "s",
              higpu::safety::asil_name(r.achieved_asil),
              r.ftti_met ? "met" : "VIOLATED");
  if (r.comparisons > 0) {
    std::printf("comparisons     : %u (%u mismatching%s)\n", r.comparisons,
                r.mismatches,
                r.majority_ok && r.mismatches > 0 ? ", out-voted" : "");
    std::printf("diversity       : %u block pairs, %u same-SM, %u time-overlap\n",
                r.diversity.blocks_checked, r.diversity.same_sm,
                r.diversity.time_overlap);
  }
  std::printf("instructions    : %llu (stalls: %llu scoreboard, %llu "
              "structural, %llu barrier)\n",
              static_cast<unsigned long long>(r.stats.get("instructions")),
              static_cast<unsigned long long>(
                  r.stats.get("issue_stall_scoreboard")),
              static_cast<unsigned long long>(
                  r.stats.get("issue_stall_structural")),
              static_cast<unsigned long long>(r.stats.get("issue_stall_barrier")));
  std::printf("L1 hit rate     : %.1f%%   L2 hit rate: %.1f%%\n",
              r.stats.ratio("l1_hits", "l1_misses") * 100.0,
              r.stats.ratio("l2_hits", "l2_misses") * 100.0);
}

serve::TrafficSpec::Pattern parse_serve_pattern(const std::string& s) {
  if (s == "periodic") return serve::TrafficSpec::Pattern::kPeriodic;
  if (s == "poisson") return serve::TrafficSpec::Pattern::kPoisson;
  if (s == "bursty") return serve::TrafficSpec::Pattern::kBursty;
  throw std::invalid_argument("unknown serve pattern '" + s +
                              "'; valid: periodic poisson bursty");
}

double parse_rps(const std::string& s) {
  try {
    const double v = std::stod(s);
    if (v > 0.0) return v;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("bad value '" + s +
                              "' for --serve-rps: expected a positive rate");
}

bool write_file(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(content.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Validate the recorded trace against the higpu.trace/1 schema, then write
/// it. A trace that fails its own schema is a bug, not a report. The event
/// counts are printed so ring wrap-around never drops events silently.
bool write_trace(const std::string& path, const obs::Tracer& tracer) {
  const std::string json = tracer.to_chrome_json();
  const std::string err = obs::validate_chrome_trace(json);
  if (!err.empty()) {
    std::fprintf(stderr, "trace failed schema validation: %s\n", err.c_str());
    return false;
  }
  const u64 recorded = tracer.events_recorded();
  const u64 dropped = tracer.events_dropped();
  std::printf("trace: %llu events recorded, %llu dropped\n",
              static_cast<unsigned long long>(recorded),
              static_cast<unsigned long long>(dropped));
  if (dropped > 0)
    std::fprintf(stderr,
                 "warning: the trace ring (%u events per track) overwrote "
                 "%llu of %llu events; %s holds only the newest\n",
                 tracer.ring_capacity(),
                 static_cast<unsigned long long>(dropped),
                 static_cast<unsigned long long>(recorded), path.c_str());
  return write_file(path, json);
}

/// Print the per-SM cycle-attribution tables for every completed scenario.
void print_profiles(const exp::CampaignResult& campaign) {
  for (const exp::ScenarioResult& r : campaign.results) {
    if (!r.ok || r.sm_profile.empty()) continue;
    if (campaign.results.size() > 1) std::printf("\n%s\n", r.label.c_str());
    std::printf("%s\n",
                obs::profile_table(r.sm_profile, r.stats.get("cycles"))
                    .c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  exp::ScenarioSpec proto;
  proto.scale = workloads::Scale::kBench;
  bool sweep_policies = false;
  bool sweep_redundancy = false;
  bool sweep_mem_policies = false;
  bool compare_explicit = false;
  u32 jobs = 1;
  std::string json_path, csv_path;
  std::string trace_path;
  bool profile = false;
  bool distributed_mode = false;
  u32 dist_workers = 0;
  std::string journal_path;
  bool resume = false;
  bool check_golden = false;
  u32 chaos_kill_after = 0;
  u32 stop_after = 0;
  bool verify_only = false;
  bool serve_mode = false;
  serve::TrafficSpec::Pattern serve_pattern =
      serve::TrafficSpec::Pattern::kPoisson;
  double serve_rps = 100.0;
  u64 serve_duration_ms = 500;
  u64 serve_max_requests = 64;
  u64 serve_deadline_ms = 50;
  u64 serve_bist_ms = 0;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--list") {
        for (const std::string& n : workloads::all_names())
          std::printf("%s\n", n.c_str());
        return 0;
      } else if (arg == "--list-workloads") {
        // Every workloads::is_known name with its available scales.
        for (const std::string& n : workloads::all_names())
          std::printf("%-16s %s,%s\n", n.c_str(),
                      workloads::scale_name(workloads::Scale::kTest),
                      workloads::scale_name(workloads::Scale::kBench));
        return 0;
      } else if (arg == "--all") {
        names = workloads::all_names();
      } else if (arg == "--fig4") {
        names = workloads::fig4_names();
      } else if (arg == "--baseline") {
        // Only the copy count: an explicit --compare/--recovery elsewhere
        // on the command line must survive (or fail validation loudly),
        // never be silently discarded by flag order.
        proto.redundancy.n_copies = 1;
      } else if (arg.rfind("--redundancy=", 0) == 0) {
        proto.redundancy.n_copies =
            static_cast<u32>(parse_number("--redundancy", arg.substr(13)));
      } else if (arg.rfind("--compare=", 0) == 0) {
        proto.redundancy.compare =
            parse_compare(arg.substr(10), &proto.redundancy.tolerance);
        compare_explicit = true;
      } else if (arg.rfind("--recovery=", 0) == 0) {
        parse_recovery(arg.substr(11), &proto.redundancy);
      } else if (arg.rfind("--checkpoint-interval=", 0) == 0) {
        proto.ckpt = parse_checkpoint_interval(arg.substr(22));
      } else if (arg == "--sweep-redundancy") {
        sweep_redundancy = true;
      } else if (arg == "--sweep-policies") {
        sweep_policies = true;
      } else if (arg.rfind("--policy=", 0) == 0) {
        proto.policy = parse_policy(arg.substr(9));
      } else if (arg.rfind("--scale=", 0) == 0) {
        proto.scale = workloads::parse_scale(arg.substr(8));
      } else if (arg.rfind("--seed=", 0) == 0) {
        proto.seed = parse_number("--seed", arg.substr(7));
      } else if (arg.rfind("--mem-write=", 0) == 0) {
        proto.gpu.mem.l1_write_policy = parse_write_policy(arg.substr(12));
      } else if (arg.rfind("--mem-alloc=", 0) == 0) {
        proto.gpu.mem.l1_write_alloc = parse_write_alloc(arg.substr(12));
      } else if (arg.rfind("--mem-mshr=", 0) == 0) {
        proto.gpu.mem.l1_mshr_entries =
            static_cast<u32>(parse_number("--mem-mshr", arg.substr(11)));
      } else if (arg.rfind("--mem-dram-banks=", 0) == 0) {
        proto.gpu.mem.dram_banks_per_channel =
            static_cast<u32>(parse_number("--mem-dram-banks", arg.substr(17)));
      } else if (arg.rfind("--mem-row-bytes=", 0) == 0) {
        proto.gpu.mem.dram_row_bytes =
            static_cast<u32>(parse_number("--mem-row-bytes", arg.substr(16)));
      } else if (arg == "--verify-only") {
        verify_only = true;
      } else if (arg == "--serve") {
        serve_mode = true;
      } else if (arg.rfind("--serve-pattern=", 0) == 0) {
        serve_pattern = parse_serve_pattern(arg.substr(16));
      } else if (arg.rfind("--serve-rps=", 0) == 0) {
        serve_rps = parse_rps(arg.substr(12));
      } else if (arg.rfind("--serve-duration-ms=", 0) == 0) {
        serve_duration_ms = parse_number("--serve-duration-ms", arg.substr(20));
      } else if (arg.rfind("--serve-max-requests=", 0) == 0) {
        serve_max_requests =
            parse_number("--serve-max-requests", arg.substr(21));
      } else if (arg.rfind("--serve-deadline-ms=", 0) == 0) {
        serve_deadline_ms = parse_number("--serve-deadline-ms", arg.substr(20));
      } else if (arg.rfind("--serve-bist-ms=", 0) == 0) {
        serve_bist_ms = parse_number("--serve-bist-ms", arg.substr(16));
      } else if (arg == "--sweep-mem-policies") {
        sweep_mem_policies = true;
      } else if (arg.rfind("--jobs=", 0) == 0) {
        jobs = static_cast<u32>(parse_number("--jobs", arg.substr(7)));
      } else if (arg.rfind("--distributed=", 0) == 0) {
        distributed_mode = true;
        dist_workers =
            static_cast<u32>(parse_number("--distributed", arg.substr(14)));
      } else if (arg.rfind("--journal=", 0) == 0) {
        journal_path = arg.substr(10);
      } else if (arg.rfind("--resume=", 0) == 0) {
        distributed_mode = true;
        resume = true;
        journal_path = arg.substr(9);
      } else if (arg == "--check-golden") {
        check_golden = true;
      } else if (arg.rfind("--chaos-kill-after=", 0) == 0) {
        chaos_kill_after = static_cast<u32>(
            parse_number("--chaos-kill-after", arg.substr(19)));
      } else if (arg.rfind("--stop-after=", 0) == 0) {
        stop_after =
            static_cast<u32>(parse_number("--stop-after", arg.substr(13)));
      } else if (arg.rfind("--json=", 0) == 0) {
        json_path = arg.substr(7);
      } else if (arg.rfind("--csv=", 0) == 0) {
        csv_path = arg.substr(6);
      } else if (arg.rfind("--trace=", 0) == 0) {
        trace_path = arg.substr(8);
      } else if (arg == "--profile") {
        profile = true;
      } else if (!arg.empty() && arg[0] == '-') {
        std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
        return usage();
      } else if (arg == "default" || arg == "half" || arg == "srrs") {
        proto.policy = parse_policy(arg);  // legacy positional policy
      } else {
        names.push_back(arg);
      }
    }
    if (names.empty()) return usage();

    // Voting is the natural default once a majority exists — but never
    // override an explicit --compare choice, whatever the flag order.
    if (!compare_explicit && proto.redundancy.n_copies >= 3)
      proto.redundancy.compare = core::RedundancySpec::Compare::kMajorityVote;

    if (verify_only) {
      // Static verification only: run each workload once in warn mode (so
      // merely-wrong kernels yield a full report instead of aborting the
      // run; memory-unsafe defect classes are refused even here, surfacing
      // as a failed scenario) and emit the per-kernel diagnostic list as
      // JSON.
      proto.gpu.verify = sim::LaunchVerify::kWarn;
      u32 errors = 0, warnings = 0;
      std::string out = "[";
      bool first = true;
      for (const std::string& n : names) {
        exp::ScenarioSpec spec = proto;
        spec.workload = n;
        std::vector<std::string> kernel_reports;
        const exp::ScenarioResult r = exp::run_scenario(
            spec, 0,
            [&](runtime::Device& dev, workloads::Workload&,
                core::ExecSession&) {
              for (const runtime::Device::VerifyRecord& rec :
                   dev.verify_reports()) {
                kernel_reports.push_back(rec.result.to_json());
                errors += rec.result.count(isa::verify::Severity::kError);
                warnings += rec.result.count(isa::verify::Severity::kWarning);
              }
            });
        if (!r.ok) {
          std::fprintf(stderr, "error: workload '%s' failed to run: %s\n",
                       n.c_str(), r.error.c_str());
          return 1;
        }
        for (const std::string& k : kernel_reports) {
          if (!first) out += ",";
          first = false;
          out += "\n  " + k;
        }
      }
      out += "\n]\n";
      if (json_path.empty())
        std::printf("%s", out.c_str());
      else if (!write_file(json_path, out))
        return 1;
      std::fprintf(stderr, "%u error(s), %u warning(s)\n", errors, warnings);
      return errors > 0 ? 1 : 0;
    }

    if (serve_mode) {
      // Each workload name is one tenant; the redundancy/policy/scale flags
      // apply to all of them (per-tenant variation lives in the API).
      serve::ServeSpec spec;
      spec.traffic.pattern = serve_pattern;
      spec.traffic.seed = proto.seed;
      spec.traffic.offered_rps = serve_rps;
      spec.traffic.duration_ns = serve_duration_ms * 1'000'000;
      spec.traffic.max_requests = static_cast<u32>(serve_max_requests);
      for (const std::string& n : names) {
        serve::TenantSpec t;
        t.name = n;
        t.workload = n;
        t.scale = proto.scale;
        t.redundancy = proto.redundancy;
        t.deadline_ns = serve_deadline_ms * 1'000'000;
        spec.traffic.tenants.push_back(std::move(t));
      }
      spec.gpu = proto.gpu;
      spec.policy = proto.policy;
      spec.bist_interval_ns = serve_bist_ms * 1'000'000;
      spec.ckpt_interval_cycles =
          proto.ckpt.kind == ckpt::CheckpointPolicy::Kind::kInterval
              ? proto.ckpt.interval_cycles
              : 0;
      obs::Tracer tracer;
      if (!trace_path.empty()) spec.tracer = &tracer;

      const serve::ServeResult r = serve::run_serve(spec);
      TextTable table({"tenant", "offered", "served", "dropped", "misses",
                       "degraded", "p50(ms)", "p99(ms)"});
      for (const serve::TenantStats& t : r.tenants)
        table.add_row(
            {t.name, std::to_string(t.offered), std::to_string(t.served),
             std::to_string(t.dropped_expired + t.dropped_overflow),
             std::to_string(t.deadline_misses),
             std::to_string(t.degraded_served),
             TextTable::fmt(static_cast<double>(t.response_ns.p50()) / 1e6, 3),
             TextTable::fmt(static_cast<double>(t.response_ns.p99()) / 1e6,
                            3)});
      std::printf("%s\n", table.render().c_str());
      std::printf("%llu served, %llu dropped, %llu misses, %zu degrade "
                  "transitions; sustained %.1f req/s at %.0f%% utilization\n",
                  static_cast<unsigned long long>(r.served),
                  static_cast<unsigned long long>(r.dropped),
                  static_cast<unsigned long long>(r.deadline_misses),
                  r.transitions.size(), r.sustained_rps(),
                  r.utilization() * 100.0);
      bool io_ok = true;
      if (!trace_path.empty()) io_ok &= write_trace(trace_path, tracer);
      if (!json_path.empty())
        io_ok &= write_file(json_path, r.to_json(spec) + "\n");
      if (!csv_path.empty()) io_ok &= write_file(csv_path, r.to_csv());
      return r.verify_failures == 0 && r.bist_failures == 0 && io_ok ? 0 : 1;
    }

    exp::ScenarioSet set = exp::ScenarioSet::for_workloads(names, proto);
    if (sweep_policies)
      set = set.sweep_policies({sched::Policy::kDefault, sched::Policy::kHalf,
                                sched::Policy::kSrrs});
    if (sweep_redundancy) set = set.sweep_redundancy();
    if (sweep_mem_policies) set = set.sweep_write_policies();
    // CampaignRunner::run() validates the whole set before executing.

    const auto print_result = [](const exp::ScenarioResult& r) {
      std::printf("  [%3u] %-45s %s\n", r.index, r.label.c_str(),
                  r.ok ? (r.passed() ? "ok" : "FAIL") : r.error.c_str());
    };

    exp::CampaignResult campaign;
    if (!trace_path.empty()) {
      // Tracing records one device's flow; a tracer cannot follow forked
      // workers and a multi-scenario campaign would interleave devices.
      if (distributed_mode || !journal_path.empty())
        throw std::invalid_argument(
            "--trace is not supported with --distributed/--journal");
      if (set.size() != 1)
        throw std::invalid_argument(
            "--trace records exactly one scenario; this invocation expands "
            "to " + std::to_string(set.size()));
      obs::Tracer tracer;
      const exp::ScenarioProbe pre_run =
          [&tracer](runtime::Device& dev, workloads::Workload&,
                    core::ExecSession&) { dev.set_tracer(&tracer); };
      exp::ScenarioResult r =
          exp::run_scenario(set[0], 0, nullptr, pre_run, nullptr);
      campaign.jobs = 1;
      campaign.wall_sec = r.wall_sec;
      campaign.results.push_back(std::move(r));
      if (!write_trace(trace_path, tracer)) return 1;
    } else if (distributed_mode || !journal_path.empty()) {
      set.validate_all();
      dist::DistConfig dcfg;
      dcfg.workers = dist_workers;
      dcfg.journal_path = journal_path;
      dcfg.resume = resume;
      dcfg.chaos_kill_after = chaos_kill_after;
      dcfg.stop_after_results = stop_after;
      if (set.size() > 1) dcfg.on_result = print_result;
      const dist::DistReport rep = dist::run_distributed(set, dcfg);
      std::printf("distributed: %u workers, %llu units shipped, %llu "
                  "resumed, %llu executed, %llu workers died, %.1f KiB of "
                  "snapshots shipped\n",
                  dcfg.workers,
                  static_cast<unsigned long long>(rep.units_shipped),
                  static_cast<unsigned long long>(rep.resumed),
                  static_cast<unsigned long long>(rep.executed),
                  static_cast<unsigned long long>(rep.workers_died),
                  static_cast<double>(rep.snapshot_bytes_shipped) / 1024.0);
      if (rep.stopped_early) {
        // A deliberate --stop-after "crash" did what was asked; the journal
        // holds everything accepted so far for a later --resume.
        std::printf("campaign stopped early after %llu results; resume "
                    "with --resume=%s\n",
                    static_cast<unsigned long long>(rep.executed),
                    journal_path.c_str());
        return 0;
      }
      campaign = rep.campaign;
      if (check_golden) {
        exp::CampaignRunner::Config golden_cfg;
        golden_cfg.jobs = 1;
        const exp::CampaignResult golden =
            exp::CampaignRunner(golden_cfg).run(set);
        u32 mismatches = 0;
        for (size_t i = 0; i < golden.results.size(); ++i)
          if (!campaign.results[i].deterministic_fields_equal(
                  golden.results[i])) {
            ++mismatches;
            std::fprintf(stderr,
                         "GOLDEN MISMATCH at scenario %zu (%s): distributed "
                         "result differs from jobs=1\n",
                         i, golden.results[i].label.c_str());
          }
        if (mismatches > 0) return 1;
        std::printf("golden check: all %zu distributed results bit-identical "
                    "to jobs=1\n",
                    golden.results.size());
      }
    } else {
      exp::CampaignRunner::Config cfg;
      cfg.jobs = jobs;
      if (set.size() > 1) cfg.on_result = print_result;
      campaign = exp::CampaignRunner(cfg).run(set);
    }

    if (campaign.results.size() == 1) {
      print_detailed(campaign.results[0]);
    } else {
      TextTable table({"scenario", "cycles", "time(ms)", "verified", "DCLS",
                       "diverse"});
      for (const exp::ScenarioResult& r : campaign.results) {
        if (!r.ok) {
          // An errored run never produced verdicts; don't render its zeroed
          // fields as if the safety mechanism had flagged something.
          table.add_row({r.label, "-", "-", "ERROR", r.error, "-"});
          continue;
        }
        table.add_row(
            {r.label, std::to_string(r.kernel_cycles),
             TextTable::fmt(static_cast<double>(r.elapsed_ns) / 1e6, 3),
             r.verified ? "yes" : "NO", r.dcls_match ? "match" : "MISMATCH",
             r.diversity.spatially_diverse() ? "yes" : "no"});
      }
      std::printf("\n%s\n", table.render().c_str());
      std::printf("%zu scenarios, %u failed, %.2f s wall (%u jobs, %.2f "
                  "scenarios/s)\n",
                  campaign.results.size(), campaign.failed(),
                  campaign.wall_sec, campaign.jobs,
                  campaign.scenarios_per_sec());
    }

    if (profile) print_profiles(campaign);

    bool io_ok = true;
    if (!json_path.empty()) io_ok &= write_file(json_path, campaign.to_json());
    if (!csv_path.empty()) io_ok &= write_file(csv_path, campaign.to_csv());
    return campaign.all_passed() && io_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
