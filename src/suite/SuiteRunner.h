//===- suite/SuiteRunner.h - Compile & profile suite programs ---*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives one suite program through the whole substrate: compile (lex /
/// parse / sema), build CFGs and the call graph, and execute every input
/// collecting profiles — the "instrument and run on several inputs" leg
/// of the paper's methodology (§2, §3).
///
//===----------------------------------------------------------------------===//

#ifndef SUITE_SUITERUNNER_H
#define SUITE_SUITERUNNER_H

#include "backend/Native.h"
#include "callgraph/CallGraph.h"
#include "cfg/Cfg.h"
#include "interp/Interp.h"
#include "interp/bytecode/Bytecode.h"
#include "lang/Parser.h"
#include "obs/Accuracy.h"
#include "profile/Profile.h"
#include "suite/Suite.h"

#include <memory>
#include <string>
#include <vector>

namespace sest {

/// Timing and resource usage of one profiled input run.
struct SuiteRunStats {
  std::string InputName;
  double WallMs = 0.0;             ///< Wall time of the interpreter run.
  uint64_t Steps = 0;              ///< Evaluation steps executed.
  double Cycles = 0.0;             ///< Cost-model cycles (Profile.TotalCycles).
  int64_t HeapCellsHighWater = 0;  ///< Peak live heap cells.
  unsigned CallDepthHighWater = 0; ///< Peak mini-C call depth.
  int64_t ExitCode = 0;
  std::string Output;              ///< Everything the run printed.
  LayoutCostCounters LayoutCost;   ///< Under the run's layout (identity
                                   ///< unless InterpOptions::Layout).
};

/// A suite program compiled and profiled on all its inputs.
struct CompiledSuiteProgram {
  const SuiteProgram *Spec = nullptr;
  std::unique_ptr<AstContext> Ctx;
  std::unique_ptr<CfgModule> Cfgs;
  std::unique_ptr<CallGraph> CG;
  /// The program lowered to bytecode, compiled once and shared (it is
  /// read-only at run time) by every input run — including concurrent
  /// ones. Null when the AST engine is selected.
  std::unique_ptr<bc::BcModule> Bc;
  /// The loaded native artifact (shared object) when the native engine
  /// is selected: compiled once per (program, layout plan) and shared by
  /// every input run, concurrent ones included (run state lives in the
  /// callee). Null for the interpreter engines.
  std::shared_ptr<const backend::NativeArtifact> Native;
  /// One profile per input, in input order.
  std::vector<Profile> Profiles;
  /// Wall time / usage per input, parallel to Profiles.
  std::vector<SuiteRunStats> RunStats;
  /// Wall time of compile + CFG + call-graph construction.
  double CompileMs = 0.0;
  /// The inputs ran with InterpOptions{} apart from the engine: no
  /// layout, no cost-scaled functions, default limits. Only then are the
  /// profiling runs the identity baselines of the opt report and the
  /// tuner (see baselineError).
  bool DefaultRunOptions = false;

  bool Ok = false;
  std::string Error;

  const TranslationUnit &unit() const { return Ctx->unit(); }

  /// Profiling run \p I (a successful one, so I < Profiles.size()) as a
  /// RunResult: the identity baseline the optimizer reports verify
  /// against instead of running the input again.
  RunResult profilingRun(size_t I) const;
};

/// Why the opt report and the tuner cannot take \p P's profiling runs as
/// their identity baselines: the program failed, has fewer than two
/// inputs, or was profiled with non-default options. Empty when they can.
std::string baselineError(const CompiledSuiteProgram &P);

/// Compiles \p Program and runs every input. On any compile or runtime
/// error, \c Ok is false and \c Error says what failed.
CompiledSuiteProgram
compileAndProfileProgram(const SuiteProgram &Program,
                         const InterpOptions &Options = {});

/// Compiles only (no execution) — used by analysis-time benchmarks.
CompiledSuiteProgram compileProgramOnly(const SuiteProgram &Program);

/// Compiles and profiles the entire suite (in Table 1 order). Programs
/// that fail are still present with Ok == false.
///
/// Each program is compiled (and lowered to bytecode) once; the
/// (program, input) runs then go through obs::parallelFor with \p Jobs
/// (0 = one per core, 1 = serial). A program's inputs after its first
/// failing one are discarded with their telemetry, so results and
/// telemetry are identical for every job count.
std::vector<CompiledSuiteProgram>
compileAndProfileSuite(const InterpOptions &Options = {}, unsigned Jobs = 0);

/// Renders compiled-suite results as the machine-readable
/// suite_report.json document (per-program compile time, per-input wall
/// time and resource usage, suite totals, and per-program accuracy
/// summaries under "accuracy"). When a telemetry context is installed on
/// this thread its full report is embedded under "telemetry". \p Engine
/// names the interpreter tier that produced the runs; \p Jobs as in
/// computeSuiteAccuracy.
std::string
suiteReportJson(const std::vector<CompiledSuiteProgram> &Programs,
                InterpEngine Engine = InterpEngine::Bytecode,
                unsigned Jobs = 1);

/// Scores the default estimator configuration (or \p EstOpts) on every
/// profiled suite program: each program's estimate is attributed against
/// the aggregate of all its input profiles (ProfileName "aggregate(N)").
/// Programs with Ok == false or no profiles are skipped.
///
/// The per-program estimation + attribution passes go through
/// obs::parallelFor with \p Jobs (0 = one per core, 1 = serial).
/// Profiles are bit-identical across engines and job counts, and the
/// attribution uses no wall-clock inputs, so reports and telemetry are
/// identical for every job count.
std::vector<obs::AccuracyReport>
computeSuiteAccuracy(const std::vector<CompiledSuiteProgram> &Programs,
                     const EstimatorOptions &EstOpts = {},
                     unsigned Jobs = 1);

/// The full sest-accuracy-report/1 document over the suite, with each
/// family capped to its worst \p MaxEntities divergence records (the
/// checked-in bench/accuracy_report.json baseline shape). \p Jobs as in
/// computeSuiteAccuracy.
std::string
suiteAccuracyReportJson(const std::vector<CompiledSuiteProgram> &Programs,
                        size_t MaxEntities = 20, unsigned Jobs = 1);

} // namespace sest

#endif // SUITE_SUITERUNNER_H
