//===- bench/bench_interp.cpp - Execution-tier benchmark -------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark timings for the three execution tiers: per suite
/// program, the AST tree-walker vs. the bytecode VM vs. the compiled-C
/// native tier on the program's first input, plus the cost of the
/// one-time bytecode lowering itself. The run_bytecode / run_native
/// ratio is the native speedup reported in docs/PERFORMANCE.md.
///
/// Besides the google-benchmark surface, `--tiers-json FILE` runs a
/// one-shot three-tier comparison over the whole suite and writes a
/// sest-interp-tiers/1 document: per-program wall times for all tiers,
/// the native host-cc compile cost, and the compile+run amortization
/// curve (after how many runs does paying the native compile beat
/// re-running the bytecode VM). That file is the checked-in
/// bench/interp_tiers.json baseline check_perf.py and bench_history.py
/// read.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "backend/Backend.h"
#include "backend/Native.h"
#include "interp/bytecode/BytecodeCompiler.h"
#include "interp/bytecode/BytecodeVM.h"
#include "lang/Parser.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

using namespace sest;
using namespace sest::bench;

namespace {

const SuiteProgram &programByIndex(int64_t I) {
  return benchmarkSuite()[static_cast<size_t>(I)];
}

/// Compiled once per benchmark; runs share it like the suite runner.
struct Prepared {
  AstContext Ctx;
  CfgModule Cfgs;
  Prepared(const SuiteProgram &P) : Cfgs([&] {
    DiagnosticEngine Diags;
    parseAndAnalyze(P.Source, Ctx, Diags);
    return CfgModule::build(Ctx.unit(), Diags);
  }()) {}
};

void BM_RunAst(benchmark::State &State) {
  const SuiteProgram &P = programByIndex(State.range(0));
  State.SetLabel(P.Name);
  Prepared Prep(P);
  InterpOptions Options;
  Options.Engine = InterpEngine::Ast;
  uint64_t Steps = 0;
  for (auto _ : State) {
    RunResult R = runProgram(Prep.Ctx.unit(), Prep.Cfgs, P.Inputs.front(),
                             Options);
    Steps = R.StepsExecuted;
    benchmark::DoNotOptimize(R.ExitCode);
  }
  State.counters["steps"] = static_cast<double>(Steps);
  State.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(Steps), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_RunBytecode(benchmark::State &State) {
  const SuiteProgram &P = programByIndex(State.range(0));
  State.SetLabel(P.Name);
  Prepared Prep(P);
  bc::BcModule Module = bc::compileBytecode(Prep.Ctx.unit(), Prep.Cfgs);
  InterpOptions Options;
  uint64_t Steps = 0;
  for (auto _ : State) {
    RunResult R = bc::runProgramBytecode(Prep.Ctx.unit(), Prep.Cfgs, Module,
                                         P.Inputs.front(), Options);
    Steps = R.StepsExecuted;
    benchmark::DoNotOptimize(R.ExitCode);
  }
  State.counters["steps"] = static_cast<double>(Steps);
  State.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(Steps), benchmark::Counter::kIsIterationInvariantRate);
}

/// Native artifact compiled once outside the timing loop (like the suite
/// runner's pool); the loop times pure execution. The one-time host-cc
/// cost is reported as the "compile_ms" counter, not folded into
/// real_time — the amortization curve in --tiers-json combines the two.
void BM_RunNative(benchmark::State &State) {
  const SuiteProgram &P = programByIndex(State.range(0));
  State.SetLabel(P.Name);
  Prepared Prep(P);
  bc::BcModule Module = bc::compileBytecode(Prep.Ctx.unit(), Prep.Cfgs);
  std::string Err;
  std::shared_ptr<const backend::NativeArtifact> Artifact =
      backend::cBackend().compile(Prep.Ctx.unit(), Prep.Cfgs, Module, {},
                                  &Err);
  if (!Artifact) {
    State.SkipWithError(("native compile failed: " + Err).c_str());
    return;
  }
  InterpOptions Options;
  Options.Engine = InterpEngine::Native;
  uint64_t Steps = 0;
  for (auto _ : State) {
    RunResult R = Artifact->run(Prep.Ctx.unit(), Prep.Cfgs, P.Inputs.front(),
                                Options);
    Steps = R.StepsExecuted;
    benchmark::DoNotOptimize(R.ExitCode);
  }
  State.counters["steps"] = static_cast<double>(Steps);
  State.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(Steps), benchmark::Counter::kIsIterationInvariantRate);
  State.counters["compile_ms"] = Artifact->compileMs();
}

void BM_BytecodeCompile(benchmark::State &State) {
  const SuiteProgram &P = programByIndex(State.range(0));
  State.SetLabel(P.Name);
  Prepared Prep(P);
  for (auto _ : State) {
    bc::BcModule Module = bc::compileBytecode(Prep.Ctx.unit(), Prep.Cfgs);
    benchmark::DoNotOptimize(Module.NumInstrs);
  }
}

void registerAll() {
  bool Native = backend::nativeEngineAvailable();
  int64_t N = static_cast<int64_t>(benchmarkSuite().size());
  for (int64_t I = 0; I < N; ++I) {
    benchmark::RegisterBenchmark("run_ast", BM_RunAst)->Arg(I);
    benchmark::RegisterBenchmark("run_bytecode", BM_RunBytecode)->Arg(I);
    if (Native)
      benchmark::RegisterBenchmark("run_native", BM_RunNative)->Arg(I);
    benchmark::RegisterBenchmark("bytecode_compile", BM_BytecodeCompile)
        ->Arg(I);
  }
}

//===----------------------------------------------------------------------===//
// --tiers-json: the one-shot three-tier suite comparison.
//===----------------------------------------------------------------------===//

double nowMs() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

/// Best-of-N wall time of \p Run, in milliseconds.
template <typename Fn> double bestOfMs(int N, Fn &&Run) {
  double Best = 0.0;
  for (int I = 0; I < N; ++I) {
    double T0 = nowMs();
    Run();
    double T = nowMs() - T0;
    if (I == 0 || T < Best)
      Best = T;
  }
  return Best;
}

struct TierSample {
  std::string Name;
  std::string Input;
  uint64_t Steps = 0;
  double AstMs = 0.0;
  double BytecodeMs = 0.0;
  double BytecodeCompileMs = 0.0;
  double NativeMs = 0.0;
  double NativeCompileMs = 0.0;
  double NativeCompileCpuMs = 0.0;
  unsigned NativeShards = 0;
  bool NativeOk = false;
};

/// Runs after how many of which the native tier's cumulative cost
/// (compile + n runs) drops below the bytecode VM's (n runs) — the
/// break-even point of paying the host cc up front. Infinity (reported
/// as 0) when native is not faster per run.
double breakevenRuns(double NativeCompileMs, double BytecodeMs,
                     double NativeMs) {
  double PerRunGain = BytecodeMs - NativeMs;
  if (PerRunGain <= 0.0)
    return 0.0;
  return NativeCompileMs / PerRunGain;
}

int runTiersReport(const std::string &Path) {
  std::string Why;
  bool NativeAvailable = backend::nativeEngineAvailable(&Why);

  const std::vector<SuiteProgram> &Suite = benchmarkSuite();
  std::vector<TierSample> Samples;
  Samples.reserve(Suite.size());

  out("three-tier comparison over " + std::to_string(Suite.size()) +
      " suite programs (first input, best of 3)\n");
  for (const SuiteProgram &P : Suite) {
    Prepared Prep(P);
    TierSample S;
    S.Name = P.Name;
    S.Input = P.Inputs.front().Name;

    double T0 = nowMs();
    bc::BcModule Module = bc::compileBytecode(Prep.Ctx.unit(), Prep.Cfgs);
    S.BytecodeCompileMs = nowMs() - T0;

    InterpOptions AstOptions;
    AstOptions.Engine = InterpEngine::Ast;
    S.AstMs = bestOfMs(3, [&] {
      RunResult R = runProgram(Prep.Ctx.unit(), Prep.Cfgs, P.Inputs.front(),
                               AstOptions);
      S.Steps = R.StepsExecuted;
    });

    InterpOptions BcOptions;
    S.BytecodeMs = bestOfMs(3, [&] {
      RunResult R = bc::runProgramBytecode(
          Prep.Ctx.unit(), Prep.Cfgs, Module, P.Inputs.front(), BcOptions);
      benchmark::DoNotOptimize(R.ExitCode);
    });

    if (NativeAvailable) {
      std::string Err;
      std::shared_ptr<const backend::NativeArtifact> Artifact =
          backend::cBackend().compile(Prep.Ctx.unit(), Prep.Cfgs, Module, {},
                                      &Err);
      if (Artifact) {
        S.NativeOk = true;
        S.NativeCompileMs = Artifact->compileMs();
        S.NativeCompileCpuMs = Artifact->compileCpuMs();
        S.NativeShards = Artifact->compileShards();
        InterpOptions NativeOptions;
        NativeOptions.Engine = InterpEngine::Native;
        S.NativeMs = bestOfMs(3, [&] {
          RunResult R = Artifact->run(Prep.Ctx.unit(), Prep.Cfgs,
                                      P.Inputs.front(), NativeOptions);
          benchmark::DoNotOptimize(R.ExitCode);
        });
      } else {
        out("  " + P.Name + ": native compile failed: " + Err + "\n");
      }
    }

    std::string Line = "  " + S.Name + ": ast " + formatDouble(S.AstMs, 2) +
                       "ms, bytecode " + formatDouble(S.BytecodeMs, 2) + "ms";
    if (S.NativeOk)
      Line += ", native " + formatDouble(S.NativeMs, 2) + "ms (cc " +
              formatDouble(S.NativeCompileMs, 0) + "ms wall, " +
              formatDouble(S.NativeCompileCpuMs, 0) + "ms cpu, " +
              std::to_string(S.NativeShards) + " units, break-even " +
              formatDouble(
                  breakevenRuns(S.NativeCompileMs, S.BytecodeMs, S.NativeMs),
                  1) +
              " runs)";
    out(Line + "\n");
    Samples.push_back(std::move(S));
  }

  double SuiteAst = 0, SuiteBc = 0, SuiteBcCompile = 0, SuiteNative = 0,
         SuiteNativeCompile = 0, SuiteNativeCompileCpu = 0;
  bool AllNative = NativeAvailable;
  for (const TierSample &S : Samples) {
    SuiteAst += S.AstMs;
    SuiteBc += S.BytecodeMs;
    SuiteBcCompile += S.BytecodeCompileMs;
    SuiteNative += S.NativeMs;
    SuiteNativeCompile += S.NativeCompileMs;
    SuiteNativeCompileCpu += S.NativeCompileCpuMs;
    AllNative = AllNative && S.NativeOk;
  }

  JsonWriter W;
  W.beginObject();
  W.member("schema", "sest-interp-tiers/1");
  W.member("native_available", NativeAvailable);
  if (!NativeAvailable)
    W.member("native_unavailable_reason", Why);
  W.key("programs");
  W.beginArray();
  for (const TierSample &S : Samples) {
    W.beginObject();
    W.member("name", S.Name);
    W.member("input", S.Input);
    W.member("steps", static_cast<double>(S.Steps));
    W.member("ast_ms", S.AstMs);
    W.member("bytecode_ms", S.BytecodeMs);
    W.member("bytecode_compile_ms", S.BytecodeCompileMs);
    if (S.NativeOk) {
      W.member("native_ms", S.NativeMs);
      W.member("native_compile_ms", S.NativeCompileMs);
      W.member("native_compile_cpu_ms", S.NativeCompileCpuMs);
      W.member("native_compile_shards", static_cast<double>(S.NativeShards));
      W.member("ast_over_native",
               S.NativeMs > 0 ? S.AstMs / S.NativeMs : 0.0);
      W.member("bytecode_over_native",
               S.NativeMs > 0 ? S.BytecodeMs / S.NativeMs : 0.0);
      W.member("breakeven_runs",
               breakevenRuns(S.NativeCompileMs, S.BytecodeMs, S.NativeMs));
    }
    W.endObject();
  }
  W.endArray();
  W.key("suite");
  W.beginObject();
  W.member("ast_ms", SuiteAst);
  W.member("bytecode_ms", SuiteBc);
  W.member("bytecode_compile_ms", SuiteBcCompile);
  W.member("ast_over_bytecode", SuiteBc > 0 ? SuiteAst / SuiteBc : 0.0);
  if (AllNative) {
    W.member("native_ms", SuiteNative);
    W.member("native_compile_ms", SuiteNativeCompile);
    W.member("native_compile_cpu_ms", SuiteNativeCompileCpu);
    W.member("bytecode_over_native",
             SuiteNative > 0 ? SuiteBc / SuiteNative : 0.0);
    W.member("ast_over_native", SuiteNative > 0 ? SuiteAst / SuiteNative : 0.0);
    W.member("breakeven_runs",
             breakevenRuns(SuiteNativeCompile, SuiteBc, SuiteNative));
    // Amortization curve: cumulative suite cost after n runs per tier.
    // The bytecode tier pays its (cheap) lowering once; the native tier
    // pays the host cc once. The crossover row is the break-even point.
    W.key("amortization");
    W.beginArray();
    for (int Runs : {1, 2, 5, 10, 20, 50, 100, 200}) {
      W.beginObject();
      W.member("runs", static_cast<double>(Runs));
      W.member("bytecode_total_ms", SuiteBcCompile + Runs * SuiteBc);
      W.member("native_total_ms", SuiteNativeCompile + Runs * SuiteNative);
      W.endObject();
    }
    W.endArray();
  }
  W.endObject();
  W.endObject();

  std::ofstream OutFile(Path);
  if (!OutFile) {
    out("bench_interp: cannot write '" + Path + "'\n");
    return 1;
  }
  OutFile << W.str();
  out("tier report written to " + Path + "\n");
  if (AllNative) {
    out("suite: bytecode-over-native " +
        formatDouble(SuiteBc / SuiteNative, 2) + "x, break-even " +
        formatDouble(breakevenRuns(SuiteNativeCompile, SuiteBc, SuiteNative),
                     1) +
        " suite runs\n");
  } else if (!NativeAvailable) {
    out("native tier unavailable: " + Why + "\n");
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (std::string_view(argv[I]) == "--tiers-json") {
      if (I + 1 >= argc) {
        out("bench_interp: --tiers-json needs a file argument\n");
        return 2;
      }
      return runTiersReport(argv[I + 1]);
    }
  }
  registerAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
