// Static ISA program verifier: multi-pass analysis over a KernelProgram
// that proves it safe to execute before the simulator trusts it.
//
// Every kernel entering the simulator today is trusted blindly — hand-built
// workloads, fuzz-generated programs, and (soon) binary-loaded kernels. The
// verifier turns malformed programs into structured diagnostics instead of
// silent state corruption inside a safety-critical redundancy simulator:
//
//   1. structural     — branch targets in range, every path reaches kExit,
//                       no fall-off-the-end, operand kinds legal per opcode
//                       (kLdp param index an in-range immediate, kSelp has a
//                       predicate source, ...).
//   2. resource       — GPR / predicate indices vs the program's declared
//                       register-file sizes: the defect class behind PR 6's
//                       NDEBUG-masked predicate-file overflows, caught
//                       statically instead of at runtime-if-asserts-on.
//   3. dataflow       — forward def-before-use over the CFG. A read of a
//                       register no instruction ever writes is an error (a
//                       determinism hazard under redundant execution, since
//                       uninitialized register files can diverge across
//                       copies); a read only some paths initialize is a
//                       warning.
//   4. barrier safety — kBar reachable under divergent guarded control flow
//                       (a guard tainted by tid/laneid/atomics, checked
//                       against the same IPDOM reconvergence structure the
//                       SIMT stack uses) deadlocks the block: some lanes
//                       wait forever at the barrier. Flagged as an error.
//   5. memory bounds  — interval abstract interpretation over tid / ctaid /
//                       param-derived address arithmetic proving kLds/kSts
//                       inside the declared shared segment and flagging
//                       provably out-of-bounds kLdg/kStg.
//
// Pass order matters: the CFG-based passes (3-5) require the structural
// invariants pass 1 checks (isa::Cfg asserts them), so a structural error
// skips them — the structural diagnostics are the result.
//
// verify() never throws on malformed input: malformed-ness is the output.
// The launch gate (runtime::Device::launch) wraps an erroring Result in a
// VerifyError instead of running the program, and ckpt::decode_snapshot
// refuses a framed program with an erroring Result.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"
#include "isa/program.h"

namespace higpu::isa::verify {

enum class Severity : u8 { kError, kWarning, kNote };

/// Stable diagnostic codes (kebab-case names via code_name). Each code is
/// pinned by a trigger + near-miss pair in tests/verify_test.cpp; the README
/// "Static verification" section is the user-facing catalog.
enum class Code : u8 {
  // Pass 1: structural.
  kEmptyProgram,      // program has no instructions
  kBadBranchTarget,   // kBra target outside the program
  kFallOffEnd,        // a path runs past the last instruction
  kNoPathToExit,      // reachable code that can never reach kExit
  kUnreachableCode,   // warning: instructions no path from entry executes
  kGuardedExitOrBar,  // kExit/kBar carries a guard predicate
  kBadOperand,        // operand shape illegal for the opcode
  kBadParamIndex,     // kLdp index not an immediate or >= num_params
  // Pass 2: resource bounds.
  kRegOutOfRange,   // GPR index >= num_regs
  kPredOutOfRange,  // predicate index >= num_preds
  // Pass 3: dataflow.
  kUninitRegRead,    // read of a GPR no instruction writes
  kUninitPredRead,   // read of a predicate no instruction writes
  kMaybeUninitRead,  // warning: read initialized on some paths only
  // Pass 4: barrier safety.
  kBarrierDivergence,  // kBar under tid-divergent control flow (deadlock)
  // Pass 5: memory bounds.
  kSharedOutOfBounds,       // every possible kLds/kSts address is OOB
  kSharedMaybeOutOfBounds,  // warning: bounded address range overruns
  kGlobalOutOfBounds,       // provably OOB kLdg/kStg/kAtomAdd
};

const char* code_name(Code c);
const char* severity_name(Severity s);

/// Block id for diagnostics raised before a CFG exists.
constexpr u32 kNoBlock = 0xFFFFFFFF;

/// One diagnostic. `pc` indexes the program's instruction vector; `block`
/// is the CFG block id (kNoBlock for structural diagnostics, which are
/// raised before a CFG can be built).
struct Diag {
  Severity severity = Severity::kError;
  Pc pc = 0;
  u32 block = kNoBlock;
  Code code = Code::kEmptyProgram;
  std::string message;
  std::string hint;
};

/// Optional launch context that sharpens the analysis. Everything defaults
/// to "unknown": the memory-bounds pass treats unknown dimensions as
/// unbounded and unknown parameters as symbolic, so a Result computed
/// without parameter values stays sound for every parameter assignment —
/// which is what lets the launch gate memoize per (program, grid, block).
struct LaunchBounds {
  u32 ntid_x = 0, ntid_y = 0, ntid_z = 0;        // block dims; 0 = unknown
  u32 nctaid_x = 0, nctaid_y = 0, nctaid_z = 0;  // grid dims; 0 = unknown
  /// Concrete parameter words (null = symbolic parameters).
  const std::vector<u32>* params = nullptr;
  /// Global-store extent in bytes (0 = unknown): enables provable-OOB
  /// checks on param-derived global addresses in tests and tools.
  u64 global_extent = 0;
};

struct Result {
  std::string kernel;
  std::vector<Diag> diags;

  /// True when no diagnostic is error-severity (warnings/notes allowed).
  bool ok() const;
  u32 count(Severity s) const;
  bool has(Code c) const;

  /// Machine-readable report:
  ///   {"kernel":"...","ok":false,"errors":1,"warnings":0,"diags":[
  ///    {"severity":"error","code":"reg-out-of-range","pc":3,"block":0,
  ///     "message":"...","hint":"..."}]}
  std::string to_json() const;
  /// Human-readable report, one diagnostic per line.
  std::string to_string() const;
};

/// Run every pass over `program`. Never throws: a malformed program is a
/// Result carrying error diagnostics.
Result verify(const KernelProgram& program, const LaunchBounds& bounds = {});

/// Thrown by the launch gate when an erroring program is refused. Carries
/// the full structured Result; what() embeds the human-readable report.
class VerifyError : public std::runtime_error {
 public:
  explicit VerifyError(Result result);
  const Result& result() const { return result_; }

 private:
  Result result_;
};

}  // namespace higpu::isa::verify
