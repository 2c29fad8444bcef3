//===- tests/test_bytecode_diff.cpp - Bytecode vs tree-walker diff ---------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests pinning the bytecode VM to the tree-walker oracle:
/// every suite program × input must produce bit-identical profiles
/// (block, arc, entry, call-site counts and cycles), output, exit codes,
/// and limit-abort behavior under both engines, and the parallel suite
/// runner must match a serial run. When a host C compiler exists, the
/// same contract extends three ways to the native tier: a limit matrix
/// (step / heap / call-depth sweeps) must trip the identical LimitHit
/// with identical high-water marks across all three engines.
///
//===----------------------------------------------------------------------===//

#include "backend/Native.h"
#include "obs/EventLog.h"
#include "obs/Telemetry.h"
#include "suite/Suite.h"
#include "suite/SuiteRunner.h"

#include <gtest/gtest.h>

using namespace sest;

namespace {

InterpOptions engineOptions(InterpEngine Engine) {
  InterpOptions O;
  O.Engine = Engine;
  return O;
}

/// Asserts exact (bitwise for doubles) equality of two profiles.
void expectProfilesIdentical(const Profile &A, const Profile &B,
                             const std::string &What) {
  ASSERT_TRUE(A.shapeMatches(B)) << What;
  EXPECT_EQ(A.TotalCycles, B.TotalCycles) << What;
  for (size_t F = 0; F < A.Functions.size(); ++F) {
    const FunctionProfile &FA = A.Functions[F];
    const FunctionProfile &FB = B.Functions[F];
    EXPECT_EQ(FA.EntryCount, FB.EntryCount) << What << " fn " << F;
    EXPECT_EQ(FA.BlockCounts, FB.BlockCounts) << What << " fn " << F;
    EXPECT_EQ(FA.ArcCounts, FB.ArcCounts) << What << " fn " << F;
  }
  EXPECT_EQ(A.CallSiteCounts, B.CallSiteCounts) << What;
}

/// One instance per suite program: run every input under both engines
/// and require bit-identical results.
class BytecodeDiffTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BytecodeDiffTest, MatchesWalkerOnAllInputs) {
  const SuiteProgram *P = findSuiteProgram(GetParam());
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram Ast =
      compileAndProfileProgram(*P, engineOptions(InterpEngine::Ast));
  CompiledSuiteProgram Bc =
      compileAndProfileProgram(*P, engineOptions(InterpEngine::Bytecode));
  ASSERT_TRUE(Ast.Ok) << Ast.Error;
  ASSERT_TRUE(Bc.Ok) << Bc.Error;

  ASSERT_EQ(Ast.Profiles.size(), Bc.Profiles.size());
  ASSERT_EQ(Ast.RunStats.size(), Bc.RunStats.size());
  for (size_t I = 0; I < Ast.Profiles.size(); ++I)
    expectProfilesIdentical(Ast.Profiles[I], Bc.Profiles[I],
                            P->Name + "/" + P->Inputs[I].Name);
  for (size_t I = 0; I < Ast.RunStats.size(); ++I) {
    const SuiteRunStats &A = Ast.RunStats[I];
    const SuiteRunStats &B = Bc.RunStats[I];
    EXPECT_EQ(A.Steps, B.Steps) << P->Name << "/" << A.InputName;
    EXPECT_EQ(A.Cycles, B.Cycles) << P->Name << "/" << A.InputName;
    EXPECT_EQ(A.HeapCellsHighWater, B.HeapCellsHighWater)
        << P->Name << "/" << A.InputName;
    EXPECT_EQ(A.CallDepthHighWater, B.CallDepthHighWater)
        << P->Name << "/" << A.InputName;
    EXPECT_EQ(A.ExitCode, B.ExitCode) << P->Name << "/" << A.InputName;
  }
}

/// Step-limit aborts must be identical: same limit kind, same error
/// text, same step count, same (partial) profile.
TEST_P(BytecodeDiffTest, StepLimitAbortsMatchWalker) {
  const SuiteProgram *P = findSuiteProgram(GetParam());
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileProgramOnly(*P);
  ASSERT_TRUE(C.Ok) << C.Error;

  // Sweep a few limits so the abort lands in different program phases.
  for (uint64_t MaxSteps : {1u, 100u, 10000u}) {
    InterpOptions AstOpts = engineOptions(InterpEngine::Ast);
    InterpOptions BcOpts = engineOptions(InterpEngine::Bytecode);
    AstOpts.MaxSteps = BcOpts.MaxSteps = MaxSteps;
    const ProgramInput &Input = P->Inputs.front();
    RunResult A = runProgram(C.unit(), *C.Cfgs, Input, AstOpts);
    RunResult B = runProgram(C.unit(), *C.Cfgs, Input, BcOpts);
    std::string What =
        P->Name + " MaxSteps=" + std::to_string(MaxSteps);
    EXPECT_EQ(A.Ok, B.Ok) << What;
    EXPECT_EQ(A.LimitHit, B.LimitHit) << What;
    EXPECT_EQ(A.Error, B.Error) << What;
    EXPECT_EQ(A.StepsExecuted, B.StepsExecuted) << What;
    EXPECT_EQ(A.Output, B.Output) << What;
    expectProfilesIdentical(A.TheProfile, B.TheProfile, What);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, BytecodeDiffTest,
                         ::testing::ValuesIn([] {
                           std::vector<std::string> Names;
                           for (const SuiteProgram &P : benchmarkSuite())
                             Names.push_back(P.Name);
                           return Names;
                         }()),
                         [](const auto &Info) { return Info.param; });

/// Call-depth and heap limits through both engines on a program rigged
/// to hit each.
TEST(BytecodeDiff, CallDepthLimitMatches) {
  const SuiteProgram *P = findSuiteProgram("xlisp");
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileProgramOnly(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  for (unsigned Depth : {1u, 2u, 8u}) {
    InterpOptions AstOpts = engineOptions(InterpEngine::Ast);
    InterpOptions BcOpts = engineOptions(InterpEngine::Bytecode);
    AstOpts.MaxCallDepth = BcOpts.MaxCallDepth = Depth;
    RunResult A = runProgram(C.unit(), *C.Cfgs, P->Inputs.front(), AstOpts);
    RunResult B = runProgram(C.unit(), *C.Cfgs, P->Inputs.front(), BcOpts);
    std::string What = "xlisp MaxCallDepth=" + std::to_string(Depth);
    EXPECT_EQ(A.Ok, B.Ok) << What;
    EXPECT_EQ(A.LimitHit, B.LimitHit) << What;
    EXPECT_EQ(A.Error, B.Error) << What;
    EXPECT_EQ(A.StepsExecuted, B.StepsExecuted) << What;
    expectProfilesIdentical(A.TheProfile, B.TheProfile, What);
  }
}

TEST(BytecodeDiff, HeapLimitMatches) {
  const SuiteProgram *P = findSuiteProgram("xlisp");
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileProgramOnly(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  for (int64_t Cells : {1, 16, 256}) {
    InterpOptions AstOpts = engineOptions(InterpEngine::Ast);
    InterpOptions BcOpts = engineOptions(InterpEngine::Bytecode);
    AstOpts.MaxHeapCells = BcOpts.MaxHeapCells = Cells;
    RunResult A = runProgram(C.unit(), *C.Cfgs, P->Inputs.front(), AstOpts);
    RunResult B = runProgram(C.unit(), *C.Cfgs, P->Inputs.front(), BcOpts);
    std::string What = "xlisp MaxHeapCells=" + std::to_string(Cells);
    EXPECT_EQ(A.Ok, B.Ok) << What;
    EXPECT_EQ(A.LimitHit, B.LimitHit) << What;
    EXPECT_EQ(A.Error, B.Error) << What;
    EXPECT_EQ(A.StepsExecuted, B.StepsExecuted) << What;
    expectProfilesIdentical(A.TheProfile, B.TheProfile, What);
  }
}

/// The Fig. 10 cost model (per-function cost factors) must accumulate
/// cycles identically — the sum order is part of the contract.
TEST(BytecodeDiff, SelectiveOptimizationCyclesMatch) {
  const SuiteProgram *P = findSuiteProgram("compress");
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileProgramOnly(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  InterpOptions AstOpts = engineOptions(InterpEngine::Ast);
  InterpOptions BcOpts = engineOptions(InterpEngine::Bytecode);
  for (const FunctionDecl *F : C.unit().Functions)
    if (F->isDefined() && F->name() != "main") {
      AstOpts.OptimizedFunctions.insert(F);
      BcOpts.OptimizedFunctions.insert(F);
    }
  AstOpts.OptimizedCostFactor = BcOpts.OptimizedCostFactor = 0.25;
  for (const ProgramInput &Input : P->Inputs) {
    RunResult A = runProgram(C.unit(), *C.Cfgs, Input, AstOpts);
    RunResult B = runProgram(C.unit(), *C.Cfgs, Input, BcOpts);
    ASSERT_TRUE(A.Ok) << A.Error;
    ASSERT_TRUE(B.Ok) << B.Error;
    EXPECT_EQ(A.TheProfile.TotalCycles, B.TheProfile.TotalCycles)
        << "compress/" << Input.Name;
  }
}

//===----------------------------------------------------------------------===//
// Three-way differentials: the native tier against both interpreters.
// Skipped cleanly (not failed) on hosts without a C compiler.
//===----------------------------------------------------------------------===//

/// Asserts one RunResult triple (ast / bytecode / native) is identical
/// in every observable: status, limit kind, diagnostics, output, exit
/// code, step count, high-water marks, and the full profile.
void expectThreeWayIdentical(const RunResult &A, const RunResult &B,
                             const RunResult &N, const std::string &What) {
  for (const auto &[R, Tier] :
       {std::pair<const RunResult &, const char *>{B, "bytecode"},
        std::pair<const RunResult &, const char *>{N, "native"}}) {
    std::string W = What + " [" + Tier + "]";
    EXPECT_EQ(A.Ok, R.Ok) << W;
    EXPECT_EQ(A.LimitHit, R.LimitHit) << W;
    EXPECT_EQ(A.Error, R.Error) << W;
    EXPECT_EQ(A.ExitCode, R.ExitCode) << W;
    EXPECT_EQ(A.Output, R.Output) << W;
    EXPECT_EQ(A.StepsExecuted, R.StepsExecuted) << W;
    EXPECT_EQ(A.HeapCellsHighWater, R.HeapCellsHighWater) << W;
    EXPECT_EQ(A.CallDepthHighWater, R.CallDepthHighWater) << W;
    expectProfilesIdentical(A.TheProfile, R.TheProfile, W);
  }
}

/// Runs one input under all three engines with the same limits and
/// requires identical observables.
void runThreeWay(const CompiledSuiteProgram &C, const ProgramInput &Input,
                 const InterpOptions &Limits, const std::string &What) {
  InterpOptions AstOpts = Limits, BcOpts = Limits, NativeOpts = Limits;
  AstOpts.Engine = InterpEngine::Ast;
  BcOpts.Engine = InterpEngine::Bytecode;
  NativeOpts.Engine = InterpEngine::Native;
  RunResult A = runProgram(C.unit(), *C.Cfgs, Input, AstOpts);
  RunResult B = runProgram(C.unit(), *C.Cfgs, Input, BcOpts);
  RunResult N = runProgram(C.unit(), *C.Cfgs, Input, NativeOpts);
  expectThreeWayIdentical(A, B, N, What);
}

/// One instance per suite program; skips on hosts without a C compiler.
class NativeDiffTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override {
    std::string Why;
    if (!backend::nativeEngineAvailable(&Why))
      GTEST_SKIP() << "native tier unavailable: " << Why;
  }
};

TEST_P(NativeDiffTest, MatchesBothEnginesOnAllInputs) {
  const SuiteProgram *P = findSuiteProgram(GetParam());
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileProgramOnly(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  for (const ProgramInput &Input : P->Inputs)
    runThreeWay(C, Input, InterpOptions{}, P->Name + "/" + Input.Name);
}

/// The limit matrix: step, heap, and call-depth sweeps must trip the
/// identical LimitHit with identical high-water marks on all three
/// engines — limits are part of the execution contract, so the compiled
/// tier must abort at the exact step the interpreters do.
TEST_P(NativeDiffTest, LimitMatrixMatchesBothEngines) {
  const SuiteProgram *P = findSuiteProgram(GetParam());
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileProgramOnly(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  const ProgramInput &Input = P->Inputs.front();

  for (uint64_t MaxSteps : {1u, 100u, 10000u}) {
    InterpOptions Limits;
    Limits.MaxSteps = MaxSteps;
    runThreeWay(C, Input, Limits,
                P->Name + " MaxSteps=" + std::to_string(MaxSteps));
  }
  for (unsigned Depth : {1u, 2u, 8u}) {
    InterpOptions Limits;
    Limits.MaxCallDepth = Depth;
    runThreeWay(C, Input, Limits,
                P->Name + " MaxCallDepth=" + std::to_string(Depth));
  }
  for (int64_t Cells : {1, 16, 256}) {
    InterpOptions Limits;
    Limits.MaxHeapCells = Cells;
    runThreeWay(C, Input, Limits,
                P->Name + " MaxHeapCells=" + std::to_string(Cells));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, NativeDiffTest,
                         ::testing::ValuesIn([] {
                           std::vector<std::string> Names;
                           for (const SuiteProgram &P : benchmarkSuite())
                             Names.push_back(P.Name);
                           return Names;
                         }()),
                         [](const auto &Info) { return Info.param; });

/// The parallel suite runner must be observationally identical to a
/// serial run: same profiles, stats, and merged telemetry counters.
TEST(BytecodeDiff, ParallelSuiteMatchesSerial) {
  obs::Telemetry SerialTele, ParallelTele;

  SerialTele.install();
  std::vector<CompiledSuiteProgram> Serial =
      compileAndProfileSuite(InterpOptions{}, 1);
  SerialTele.uninstall();

  ParallelTele.install();
  std::vector<CompiledSuiteProgram> Parallel =
      compileAndProfileSuite(InterpOptions{}, 4);
  ParallelTele.uninstall();

  ASSERT_EQ(Serial.size(), Parallel.size());
  for (size_t I = 0; I < Serial.size(); ++I) {
    const CompiledSuiteProgram &S = Serial[I];
    const CompiledSuiteProgram &Q = Parallel[I];
    EXPECT_EQ(S.Ok, Q.Ok) << S.Spec->Name;
    ASSERT_EQ(S.Profiles.size(), Q.Profiles.size()) << S.Spec->Name;
    for (size_t J = 0; J < S.Profiles.size(); ++J)
      expectProfilesIdentical(S.Profiles[J], Q.Profiles[J],
                              S.Spec->Name + "/" +
                                  S.Spec->Inputs[J].Name);
    ASSERT_EQ(S.RunStats.size(), Q.RunStats.size()) << S.Spec->Name;
    for (size_t J = 0; J < S.RunStats.size(); ++J) {
      EXPECT_EQ(S.RunStats[J].Steps, Q.RunStats[J].Steps);
      EXPECT_EQ(S.RunStats[J].Cycles, Q.RunStats[J].Cycles);
      EXPECT_EQ(S.RunStats[J].ExitCode, Q.RunStats[J].ExitCode);
    }
  }

  // Merged telemetry counters (steps, instrs, runs, ...) must agree
  // exactly; only timing-valued entries may differ.
  ASSERT_EQ(SerialTele.counters().size(), ParallelTele.counters().size());
  for (const auto &[Name, Value] : SerialTele.counters()) {
    auto It = ParallelTele.counters().find(Name);
    ASSERT_NE(It, ParallelTele.counters().end()) << Name;
    if (Name.find("_ms") == std::string::npos &&
        Name.find("_us") == std::string::npos)
      EXPECT_EQ(Value, It->second) << Name;
  }
}

/// The suite runner's failure rule: an input that fails ends its
/// program, and the program's later inputs leave no results, telemetry
/// or events, at every job count. The step limit makes some programs
/// pass their first input and fail a later one.
TEST(BytecodeDiff, ParallelSuiteFailureRuleMatchesSerial) {
  InterpOptions Limited;
  Limited.MaxSteps = 200000;
  struct Run {
    obs::Telemetry Tele;
    obs::EventLog Log;
    std::vector<CompiledSuiteProgram> Programs;
  };
  auto RunAt = [&](Run &R, unsigned Jobs) {
    R.Tele.install();
    R.Log.install();
    R.Programs = compileAndProfileSuite(Limited, Jobs);
    R.Log.uninstall();
    R.Tele.uninstall();
  };
  Run Serial, Parallel;
  RunAt(Serial, 1);
  RunAt(Parallel, 4);

  bool PassedThenFailed = false;
  ASSERT_EQ(Serial.Programs.size(), Parallel.Programs.size());
  for (size_t I = 0; I < Serial.Programs.size(); ++I) {
    const CompiledSuiteProgram &S = Serial.Programs[I];
    const CompiledSuiteProgram &Q = Parallel.Programs[I];
    const std::string &Name = S.Spec->Name;
    EXPECT_EQ(S.Ok, Q.Ok) << Name;
    EXPECT_EQ(S.Error, Q.Error) << Name;
    PassedThenFailed = PassedThenFailed || (!S.Ok && !S.Profiles.empty());
    ASSERT_EQ(S.Profiles.size(), Q.Profiles.size()) << Name;
    for (size_t J = 0; J < S.Profiles.size(); ++J)
      expectProfilesIdentical(S.Profiles[J], Q.Profiles[J],
                              Name + "/" + S.Spec->Inputs[J].Name);
    ASSERT_EQ(S.RunStats.size(), Q.RunStats.size()) << Name;
    for (size_t J = 0; J < S.RunStats.size(); ++J) {
      const SuiteRunStats &A = S.RunStats[J], &B = Q.RunStats[J];
      EXPECT_EQ(A.InputName, B.InputName) << Name;
      EXPECT_EQ(A.Steps, B.Steps) << Name;
      EXPECT_EQ(A.Cycles, B.Cycles) << Name;
      EXPECT_EQ(A.HeapCellsHighWater, B.HeapCellsHighWater) << Name;
      EXPECT_EQ(A.CallDepthHighWater, B.CallDepthHighWater) << Name;
      EXPECT_EQ(A.ExitCode, B.ExitCode) << Name;
    }
  }
  EXPECT_TRUE(PassedThenFailed)
      << "no program passes its first input and fails a later one";

  // Counters (timing-valued ones aside), histogram sample counts and the
  // event stream match the serial run exactly.
  ASSERT_EQ(Serial.Tele.counters().size(), Parallel.Tele.counters().size());
  for (const auto &[Name, Value] : Serial.Tele.counters()) {
    auto It = Parallel.Tele.counters().find(Name);
    ASSERT_NE(It, Parallel.Tele.counters().end()) << Name;
    if (Name.find("_ms") == std::string::npos &&
        Name.find("_us") == std::string::npos)
      EXPECT_EQ(Value, It->second) << Name;
  }
  ASSERT_EQ(Serial.Tele.histograms().size(),
            Parallel.Tele.histograms().size());
  for (const auto &[Name, H] : Serial.Tele.histograms()) {
    auto It = Parallel.Tele.histograms().find(Name);
    ASSERT_NE(It, Parallel.Tele.histograms().end()) << Name;
    EXPECT_EQ(H.Count, It->second.Count) << Name;
  }
  EXPECT_EQ(Serial.Log.jsonl(), Parallel.Log.jsonl());
}

} // namespace
