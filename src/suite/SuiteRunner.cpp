//===- suite/SuiteRunner.cpp - Compile & profile suite programs ------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "suite/SuiteRunner.h"

#include "interp/bytecode/BytecodeCompiler.h"
#include "interp/bytecode/BytecodeVM.h"
#include "obs/Parallel.h"
#include "obs/Telemetry.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <chrono>

using namespace sest;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Whether \p O equals InterpOptions{} in everything but the engine.
bool defaultApartFromEngine(const InterpOptions &O) {
  const InterpOptions D;
  return O.MaxSteps == D.MaxSteps && O.MaxCallDepth == D.MaxCallDepth &&
         O.MaxHostStackBytes == D.MaxHostStackBytes &&
         O.MaxHeapCells == D.MaxHeapCells && O.OptimizedFunctions.empty() &&
         O.OptimizedCostFactor == D.OptimizedCostFactor && !O.Layout;
}

/// Lowers a successfully compiled program to bytecode. The module is
/// read-only at run time, so every input (possibly on several threads)
/// executes against this one copy.
void prepareEngine(CompiledSuiteProgram &P, const InterpOptions &Options) {
  if (P.Ok && Options.Engine == InterpEngine::Bytecode)
    P.Bc = std::make_unique<bc::BcModule>(
        bc::compileBytecode(P.unit(), *P.Cfgs));
  if (P.Ok && Options.Engine == InterpEngine::Native) {
    P.Bc = std::make_unique<bc::BcModule>(
        bc::compileBytecode(P.unit(), *P.Cfgs));
    std::string Err;
    P.Native = backend::cBackend().compile(
        P.unit(), *P.Cfgs, *P.Bc, backend::planFromOptions(Options), &Err);
    if (!P.Native) {
      P.Ok = false;
      P.Error = P.Spec->Name + ": native compile failed: " + Err;
    }
  }
}

/// One timed input execution on whichever engine was prepared.
struct RunOutcome {
  RunResult R;
  double WallMs = 0.0;
};

RunOutcome timedRun(const CompiledSuiteProgram &P, const ProgramInput &Input,
                    const InterpOptions &Options) {
  Clock::time_point Start = Clock::now();
  RunOutcome O;
  O.R = P.Native ? P.Native->run(P.unit(), *P.Cfgs, Input, Options)
        : P.Bc   ? bc::runProgramBytecode(P.unit(), *P.Cfgs, *P.Bc, Input,
                                          Options)
                 : runProgram(P.unit(), *P.Cfgs, Input, Options);
  O.WallMs = msSince(Start);
  return O;
}

/// Folds one run into its program's stats/profiles. Returns false when
/// the run failed — the program's remaining inputs must be discarded.
bool absorbRun(CompiledSuiteProgram &Out, const ProgramInput &Input,
               RunOutcome O) {
  SuiteRunStats Stats;
  Stats.InputName = Input.Name;
  Stats.WallMs = O.WallMs;
  Stats.Steps = O.R.StepsExecuted;
  Stats.Cycles = O.R.TheProfile.TotalCycles;
  Stats.HeapCellsHighWater = O.R.HeapCellsHighWater;
  Stats.CallDepthHighWater = O.R.CallDepthHighWater;
  Stats.ExitCode = O.R.ExitCode;
  Stats.Output = std::move(O.R.Output);
  Stats.LayoutCost = O.R.LayoutCost;
  Out.RunStats.push_back(std::move(Stats));
  if (!O.R.Ok) {
    Out.Ok = false;
    Out.Error = Out.Spec->Name + " on input '" + Input.Name +
                "': " + O.R.Error;
    return false;
  }
  O.R.TheProfile.ProgramName = Out.Spec->Name;
  Out.Profiles.push_back(std::move(O.R.TheProfile));
  return true;
}

} // namespace

RunResult CompiledSuiteProgram::profilingRun(size_t I) const {
  const SuiteRunStats &S = RunStats[I];
  RunResult R;
  R.Ok = true;
  R.ExitCode = S.ExitCode;
  R.Output = S.Output;
  R.TheProfile = Profiles[I];
  R.StepsExecuted = S.Steps;
  R.HeapCellsHighWater = S.HeapCellsHighWater;
  R.CallDepthHighWater = S.CallDepthHighWater;
  R.LayoutCost = S.LayoutCost;
  return R;
}

std::string sest::baselineError(const CompiledSuiteProgram &P) {
  if (!P.Ok)
    return P.Error;
  if (P.Profiles.size() < 2)
    return "needs at least two inputs";
  if (!P.DefaultRunOptions)
    return "profiled with non-default run options; the profiling runs "
           "are the identity baselines, so only the engine may differ "
           "from the defaults";
  return {};
}

CompiledSuiteProgram sest::compileProgramOnly(const SuiteProgram &Program) {
  obs::ScopedPhase Phase("suite.compile", Program.Name);
  Clock::time_point Start = Clock::now();
  CompiledSuiteProgram Out;
  Out.Spec = &Program;
  Out.Ctx = std::make_unique<AstContext>();
  DiagnosticEngine Diags;
  if (!parseAndAnalyze(Program.Source, *Out.Ctx, Diags)) {
    Out.Error = Program.Name + ": compile error:\n" + Diags.str();
    return Out;
  }
  Out.Cfgs = std::make_unique<CfgModule>(
      CfgModule::build(Out.Ctx->unit(), Diags));
  if (Diags.hasErrors()) {
    Out.Error = Program.Name + ": CFG error:\n" + Diags.str();
    return Out;
  }
  Out.CG = std::make_unique<CallGraph>(
      CallGraph::build(Out.Ctx->unit(), *Out.Cfgs));
  obs::gaugeMax("frontend.arena.bytes.high_water",
                static_cast<double>(Out.Ctx->arenaBytes()));
  Out.Ok = true;
  Out.CompileMs = msSince(Start);
  return Out;
}

CompiledSuiteProgram
sest::compileAndProfileProgram(const SuiteProgram &Program,
                               const InterpOptions &Options) {
  obs::ScopedPhase Phase("suite.program", Program.Name);
  CompiledSuiteProgram Out = compileProgramOnly(Program);
  Out.DefaultRunOptions = defaultApartFromEngine(Options);
  prepareEngine(Out, Options);
  if (!Out.Ok)
    return Out;

  for (const ProgramInput &Input : Program.Inputs)
    if (!absorbRun(Out, Input, timedRun(Out, Input, Options)))
      break;
  return Out;
}

std::vector<CompiledSuiteProgram>
sest::compileAndProfileSuite(const InterpOptions &Options, unsigned Jobs) {
  obs::ScopedPhase Phase("suite.run");

  // Compile (and lower) every program once, up front and serially —
  // compilation is a sliver of the suite's wall time.
  std::vector<CompiledSuiteProgram> Out;
  for (const SuiteProgram &P : benchmarkSuite()) {
    obs::ScopedPhase ProgPhase("suite.program", P.Name);
    Out.push_back(compileProgramOnly(P));
    Out.back().DefaultRunOptions = defaultApartFromEngine(Options);
    prepareEngine(Out.back(), Options);
  }

  // The (program, input) runs, folded back in input order. A failing
  // input ends its program like compileAndProfileProgram: its later
  // inputs never run on the serial path, and on the parallel path their
  // results and telemetry are dropped, so the report is independent of
  // the job count.
  struct Task {
    size_t Prog;
    const ProgramInput *Input;
  };
  std::vector<Task> Tasks;
  for (size_t I = 0; I < Out.size(); ++I)
    if (Out[I].Ok)
      for (const ProgramInput &Input : Out[I].Spec->Inputs)
        Tasks.push_back({I, &Input});

  // Pool shape metrics, emitted identically by the serial and parallel
  // paths (only the worker gauge value differs; gauges are not part of
  // the serial/parallel equality contract).
  obs::counterAdd("suite.pool.tasks", static_cast<double>(Tasks.size()));
  obs::gaugeMax("suite.pool.queue_depth.high_water",
                static_cast<double>(Tasks.size()));
  obs::gaugeMax("suite.pool.workers",
                static_cast<double>(obs::parallelWorkers(Jobs, Tasks.size())));

  std::vector<RunOutcome> Results(Tasks.size());
  obs::parallelFor(
      Jobs, Tasks.size(),
      [&](size_t I) {
        const CompiledSuiteProgram &P = Out[Tasks[I].Prog];
        if (!P.Ok)
          return; // An earlier input failed (serial path only).
        obs::ScopedPhase TaskPhase("suite.task",
                                   P.Spec->Name + "/" + Tasks[I].Input->Name);
        Results[I] = timedRun(P, *Tasks[I].Input, Options);
        // Worker busy time: the _us suffix marks it timing-valued, so the
        // serial/parallel counter-equality contract skips its value.
        obs::counterAdd("suite.pool.busy_us", Results[I].WallMs * 1000.0);
        obs::histRecord("suite.pool.task_us", Results[I].WallMs * 1000.0);
      },
      [&](size_t I) {
        CompiledSuiteProgram &P = Out[Tasks[I].Prog];
        if (!P.Ok)
          return false;
        absorbRun(P, *Tasks[I].Input, std::move(Results[I]));
        return true;
      });
  return Out;
}

std::vector<obs::AccuracyReport>
sest::computeSuiteAccuracy(const std::vector<CompiledSuiteProgram> &Programs,
                           const EstimatorOptions &EstOpts, unsigned Jobs) {
  obs::ScopedPhase Phase("suite.accuracy");

  std::vector<const CompiledSuiteProgram *> Scored;
  for (const CompiledSuiteProgram &P : Programs)
    if (P.Ok && !P.Profiles.empty())
      Scored.push_back(&P);

  // Estimation + attribution, one program per task.
  std::vector<obs::AccuracyReport> Reports(Scored.size());
  obs::parallelFor(Jobs, Scored.size(), [&](size_t I) {
    const CompiledSuiteProgram &P = *Scored[I];
    Profile Aggregate = aggregateProfiles(P.Profiles);
    Aggregate.ProgramName = P.Spec->Name;
    Aggregate.InputName =
        "aggregate(" + std::to_string(P.Profiles.size()) + ")";
    ProgramEstimate Estimate =
        estimateProgram(P.unit(), *P.Cfgs, *P.CG, EstOpts);
    Reports[I] = obs::computeAccuracy(P.unit(), *P.Cfgs, *P.CG, Estimate,
                                      Aggregate, EstOpts);
    Reports[I].ProgramHash = hashHex(contentHash64(P.Spec->Source));
  });
  return Reports;
}

std::string sest::suiteAccuracyReportJson(
    const std::vector<CompiledSuiteProgram> &Programs, size_t MaxEntities,
    unsigned Jobs) {
  return obs::accuracyReportJson(
      computeSuiteAccuracy(Programs, {}, Jobs), MaxEntities);
}

std::string
sest::suiteReportJson(const std::vector<CompiledSuiteProgram> &Programs,
                      InterpEngine Engine, unsigned Jobs) {
  std::vector<obs::AccuracyReport> Accuracy =
      computeSuiteAccuracy(Programs, {}, Jobs);
  auto AccuracyFor = [&](const CompiledSuiteProgram &P)
      -> const obs::AccuracyReport * {
    if (!P.Spec)
      return nullptr;
    for (const obs::AccuracyReport &R : Accuracy)
      if (R.Program == P.Spec->Name)
        return &R;
    return nullptr;
  };

  JsonWriter W;
  W.beginObject();
  W.member("schema", "sest-suite-report/4");
  W.member("engine", interpEngineName(Engine));

  unsigned NumOk = 0, NumRuns = 0;
  double TotalWallMs = 0.0, TotalCompileMs = 0.0;
  uint64_t TotalSteps = 0;

  W.key("programs");
  W.beginArray();
  for (const CompiledSuiteProgram &P : Programs) {
    W.beginObject();
    W.member("name", P.Spec ? P.Spec->Name : "");
    W.member("ok", P.Ok);
    if (!P.Ok)
      W.member("error", P.Error);
    W.member("compile_ms", P.CompileMs);
    if (const obs::AccuracyReport *R = AccuracyFor(P)) {
      W.key("accuracy");
      W.beginObject();
      W.member("profile", R->ProfileName);
      W.member("block_score", R->Blocks.Score);
      W.member("function_score", R->Functions.Score);
      W.member("call_site_score", R->CallSites.Score);
      W.member("intra_score", R->IntraScore);
      W.member("branch_miss_rate", R->Miss.rate());
      W.endObject();
    }
    if (P.Ctx) {
      W.member("functions",
               static_cast<uint64_t>(P.unit().Functions.size()));
      if (P.Cfgs) {
        uint64_t Blocks = 0;
        for (const auto &[F, G] : P.Cfgs->all())
          Blocks += G->size();
        W.member("blocks", Blocks);
      }
    }
    W.key("runs");
    W.beginArray();
    for (const SuiteRunStats &S : P.RunStats) {
      W.beginObject();
      W.member("input", S.InputName);
      W.member("wall_ms", S.WallMs);
      W.member("steps", S.Steps);
      W.member("cycles", S.Cycles);
      W.member("heap_cells_high_water", S.HeapCellsHighWater);
      W.member("call_depth_high_water",
               static_cast<uint64_t>(S.CallDepthHighWater));
      W.member("exit_code", S.ExitCode);
      W.endObject();
      ++NumRuns;
      TotalWallMs += S.WallMs;
      TotalSteps += S.Steps;
    }
    W.endArray();
    W.endObject();
    if (P.Ok)
      ++NumOk;
    TotalCompileMs += P.CompileMs;
  }
  W.endArray();

  W.key("totals");
  W.beginObject();
  W.member("programs", static_cast<uint64_t>(Programs.size()));
  W.member("ok", static_cast<uint64_t>(NumOk));
  W.member("runs", static_cast<uint64_t>(NumRuns));
  W.member("compile_ms", TotalCompileMs);
  W.member("wall_ms", TotalWallMs);
  W.member("steps", TotalSteps);
  if (!Accuracy.empty()) {
    double Block = 0, Function = 0, CallSite = 0, Intra = 0, Miss = 0;
    for (const obs::AccuracyReport &R : Accuracy) {
      Block += R.Blocks.Score;
      Function += R.Functions.Score;
      CallSite += R.CallSites.Score;
      Intra += R.IntraScore;
      Miss += R.Miss.rate();
    }
    double N = static_cast<double>(Accuracy.size());
    W.key("accuracy_means");
    W.beginObject();
    W.member("programs", static_cast<uint64_t>(Accuracy.size()));
    W.member("block_score", Block / N);
    W.member("function_score", Function / N);
    W.member("call_site_score", CallSite / N);
    W.member("intra_score", Intra / N);
    W.member("branch_miss_rate", Miss / N);
    W.endObject();
  }
  W.endObject();

  if (obs::Telemetry *T = obs::Telemetry::active()) {
    W.key("telemetry");
    T->writeReport(W);
  }

  W.endObject();
  assert(W.complete() && "unbalanced suite report document");
  return W.take();
}
