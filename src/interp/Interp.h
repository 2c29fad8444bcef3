//===- interp/Interp.h - Profiling interpreter ------------------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CFG-level interpreter for mini-C that doubles as the profiling
/// substrate: it executes the program on a given input and records exact
/// basic-block, arc, function-entry and call-site counts (the role played
/// by gcc-based instrumentation in the paper, §2).
///
/// It also implements the cost model used by the selective-optimization
/// experiment (paper §6 / Fig. 10): every expression-node evaluation costs
/// one cycle, scaled by a per-function factor when the function is in the
/// "optimized" set.
///
//===----------------------------------------------------------------------===//

#ifndef INTERP_INTERP_H
#define INTERP_INTERP_H

#include "cfg/Cfg.h"
#include "interp/Value.h"
#include "lang/Ast.h"
#include "profile/Profile.h"

#include <cstdint>
#include <set>
#include <string>

namespace sest {

/// One program input: the byte stream read_char/read_int consume, plus
/// the PRNG seed for rand().
struct ProgramInput {
  std::string Name = "input";
  std::string Text;
  uint64_t RandSeed = 1;
};

/// Which execution engine runs the program. Both produce bit-identical
/// RunResults (profiles, diagnostics, limit semantics); the tree-walker
/// is the reference oracle, the bytecode VM is the fast default.
enum class InterpEngine {
  Ast,      ///< Recursive tree-walker (interp/Interp.cpp).
  Bytecode, ///< Compile-once bytecode VM (interp/bytecode/).
  Native,   ///< Compile-to-C backend (src/backend/), host-native code.
};

/// Short identifier for an engine ("ast", "bytecode", "native").
const char *interpEngineName(InterpEngine Engine);

/// A whole-program basic-block layout: one block order per function id.
/// An empty row (or a null layout pointer) means identity — blocks in
/// block-id order, which is exactly how the CFG builder laid them out.
/// Produced by the optimizer (src/opt/Layout.h) and consumed by the
/// layout-sensitive dynamic cost model in both interpreter engines.
using ProgramBlockOrder = std::vector<std::vector<uint32_t>>;

/// Dynamic layout-cost counters: how control actually flowed relative to
/// a chosen basic-block layout. Both engines count every arc transfer as
/// either a fall-through (the successor is the next block in layout
/// order) or a taken branch/jump, plus every mini-C call and completed
/// return (call overhead). Counts are exact and bit-identical across
/// engines and job counts; the weighted cost() is the scalar the
/// optimizer minimizes (see docs/OPTIMIZATION.md).
struct LayoutCostCounters {
  uint64_t FallThrough = 0; ///< Transfers to the layout-adjacent block.
  uint64_t Taken = 0;       ///< Every other arc transfer.
  uint64_t Calls = 0;       ///< Mini-C (non-builtin) invocations.
  uint64_t Returns = 0;     ///< Completed mini-C returns.

  // Cost weights, in model cycles per event. A fall-through is the
  // baseline; a taken transfer pays a redirect penalty; calls and
  // returns pay the linkage overhead the inliner removes.
  static constexpr double CostFallThrough = 1.0;
  static constexpr double CostTaken = 4.0;
  static constexpr double CostCall = 6.0;
  static constexpr double CostReturn = 3.0;

  double cost() const {
    return static_cast<double>(FallThrough) * CostFallThrough +
           static_cast<double>(Taken) * CostTaken +
           static_cast<double>(Calls) * CostCall +
           static_cast<double>(Returns) * CostReturn;
  }
  bool operator==(const LayoutCostCounters &) const = default;
};

/// Expands \p Layout (null, or per-function rows where empty = identity)
/// into dense per-function block-position tables Pos[fid][block id].
/// Rows whose size does not match the function's CFG fall back to
/// identity. Shared by both engines so classification is identical.
std::vector<std::vector<uint32_t>>
layoutPositions(const TranslationUnit &Unit, const CfgModule &Cfgs,
                const ProgramBlockOrder *Layout);

/// Knobs for one execution.
struct InterpOptions {
  /// Abort the run after this many evaluation steps (runaway guard).
  uint64_t MaxSteps = 200'000'000;
  /// Maximum call depth.
  unsigned MaxCallDepth = 4096;
  /// Maximum host (C++) stack the interpreter's own recursion may
  /// consume before a run is aborted; guards against host stack
  /// overflow on builds with large frames (debug, sanitizers), where
  /// MaxCallDepth alone would be reached too late.
  size_t MaxHostStackBytes = 6u << 20;
  /// Maximum total heap cells. A cell is one 16-byte Value, so the
  /// default cap allows 2^26 x 16 B = 1 GiB of heap per run.
  int64_t MaxHeapCells = 1 << 26;
  /// Functions whose per-cycle cost is multiplied by OptimizedCostFactor
  /// (the Fig. 10 experiment).
  std::set<const FunctionDecl *> OptimizedFunctions;
  double OptimizedCostFactor = 0.5;
  /// Execution engine (see InterpEngine).
  InterpEngine Engine = InterpEngine::Bytecode;
  /// Basic-block layout the run's LayoutCostCounters are keyed to (null
  /// = identity). Classification only: the layout never changes what
  /// executes, so profiles and outputs are layout-independent.
  const ProgramBlockOrder *Layout = nullptr;
};

/// Which resource limit (if any) aborted a run.
enum class RunLimit {
  None,
  Steps,     ///< InterpOptions::MaxSteps.
  CallDepth, ///< InterpOptions::MaxCallDepth.
  HostStack, ///< InterpOptions::MaxHostStackBytes.
  HeapCells, ///< InterpOptions::MaxHeapCells.
  HostFrame, ///< The fixed interpreter value-stack ceiling.
};

/// Short identifier for a limit ("steps", "call-depth", ...).
const char *runLimitName(RunLimit L);

/// Outcome of one execution.
struct RunResult {
  /// True when the program ran to completion (normal return from main or
  /// an exit() call).
  bool Ok = false;
  /// Diagnostic for aborted runs (runtime error, abort(), step limit).
  /// Resource-limit aborts include the configured limit and the run's
  /// high-water marks.
  std::string Error;
  /// The resource limit that aborted the run, when one did.
  RunLimit LimitHit = RunLimit::None;
  /// Exit code (main's return value or exit()'s argument).
  int64_t ExitCode = 0;
  /// Everything the program printed.
  std::string Output;
  /// The collected profile.
  Profile TheProfile;

  // Resource usage, filled for every run (successful or not).
  uint64_t StepsExecuted = 0;         ///< Evaluation steps taken.
  int64_t HeapCellsHighWater = 0;     ///< Peak live heap cells.
  unsigned CallDepthHighWater = 0;    ///< Peak mini-C call depth.
  /// Layout-sensitive control-transfer counters for the layout in
  /// InterpOptions::Layout (identity when none was given).
  LayoutCostCounters LayoutCost;
};

/// Executes \p Unit (starting at "main", which must take no parameters)
/// with CFGs from \p Cfgs on \p Input.
RunResult runProgram(const TranslationUnit &Unit, const CfgModule &Cfgs,
                     const ProgramInput &Input,
                     const InterpOptions &Options = {});

/// How runProgram reaches the native tier without src/interp linking
/// against src/backend: the backend library registers its entry point
/// here at static-init time (Native.cpp). When no backend is linked in,
/// Engine=Native runs fail with a clean capability error.
using NativeRunHook = RunResult (*)(const TranslationUnit &,
                                    const CfgModule &, const ProgramInput &,
                                    const InterpOptions &);
void setNativeRunHook(NativeRunHook Hook);

} // namespace sest

#endif // INTERP_INTERP_H
