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
/// The walker and the VM share one runtime (interp/RunState.h), so the
/// walker checks only the VM's lowering: control flow, evaluation order
/// and step accounting. The shared semantics — binary operators
/// (BinOpDiff), memory faults, builtins and the input readers
/// (RuntimeDiff) — are checked against the native tier's C runtime.
///
//===----------------------------------------------------------------------===//

#include "backend/Native.h"
#include "obs/EventLog.h"
#include "obs/Telemetry.h"
#include "suite/Suite.h"
#include "suite/SuiteRunner.h"

#include <gtest/gtest.h>

#include <regex>

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

/// Asserts another engine's RunResult \p R is identical to the AST
/// walker's \p A in every observable: status, limit kind, diagnostics,
/// output, exit code, step count, high-water marks, and the full profile.
void expectSameAsAst(const RunResult &A, const RunResult &R,
                     const std::string &W) {
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

/// Asserts one RunResult triple (ast / bytecode / native) is identical.
void expectThreeWayIdentical(const RunResult &A, const RunResult &B,
                             const RunResult &N, const std::string &What) {
  expectSameAsAst(A, B, What + " [bytecode]");
  expectSameAsAst(A, N, What + " [native]");
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

//===----------------------------------------------------------------------===//
// Binary operators: the native tier's inline fast paths against the
// interpreters' generic path, on every operand-kind pairing.
//===----------------------------------------------------------------------===//

/// Every engine that can run here, on one input, against the AST walker;
/// returns the walker's result. Native joins when a host compiler exists.
RunResult runAllEngines(const CompiledSuiteProgram &C,
                        const ProgramInput &Input,
                        const InterpOptions &Limits, const std::string &What) {
  InterpOptions Opts = Limits;
  Opts.Engine = InterpEngine::Ast;
  RunResult A = runProgram(C.unit(), *C.Cfgs, Input, Opts);
  Opts.Engine = InterpEngine::Bytecode;
  expectSameAsAst(A, runProgram(C.unit(), *C.Cfgs, Input, Opts),
                  What + " [bytecode]");
  if (backend::nativeEngineAvailable()) {
    Opts.Engine = InterpEngine::Native;
    expectSameAsAst(A, runProgram(C.unit(), *C.Cfgs, Input, Opts),
                    What + " [native]");
  }
  return A;
}

/// Input 0 runs the whole matrix: every binary operator Sema accepts on
/// int/int, double/double (with +-inf, -0.0 and a NaN made as inf - inf),
/// int/double, pointer/int, pointer/pointer in one object and across two
/// (a global and a stack array), and function pointer vs null, including
/// INT64_MIN / -1 and the shift counts 0 and 63. Inputs 1-9 each end the
/// run on one failing operand pair instead: a zero divisor, a shift count
/// of -1 or 64, or a subtraction of pointers into different objects.
const char *BinOpMatrixSource = R"(
int iv[10];
double dv[8];
int arr[8];
int zero;
int neg1;

int f(int x) { return x + 1; }

void pi(int v) { print_int(v); print_char(' '); }
void pd(double v) { print_double(v); print_char(' '); }

void ints(int x, int y) {
  pi(x + y); pi(x - y); pi(x * y);
  if (y != 0) { pi(x / y); pi(x % y); }
  if (y >= 0 && y <= 63) { pi(x << y); pi(x >> y); }
  pi(x & y); pi(x | y); pi(x ^ y);
  pi(x < y); pi(x > y); pi(x <= y); pi(x >= y); pi(x == y); pi(x != y);
  print_char('\n');
}

void dbls(double x, double y) {
  pd(x + y); pd(x - y); pd(x * y);
  if (y != 0.0) pd(x / y);
  pi(x < y); pi(x > y); pi(x <= y); pi(x >= y); pi(x == y); pi(x != y);
  print_char('\n');
}

void mixed(int x, double y) {
  pd(x + y); pd(y - x); pd(x * y);
  if (y != 0.0) pd(x / y);
  if (x != 0) pd(y / x);
  pi(x < y); pi(y > x); pi(x <= y); pi(y >= x); pi(x == y); pi(y != x);
  print_char('\n');
}

void ptrs() {
  int *p; int *q; int *r; int *n; int k; int loc[4];
  char word[6] = "pairs";
  int (*fp)(int); int (*np)(int);
  p = arr + 2; q = &arr[5]; r = loc + 1; n = NULL;
  pi(word[4] - word[0]); pi(&word[4] - word); pi(word + 1 < &word[3]);
  for (k = -1; k <= 2; k++) {
    pi((p + k) - arr); pi((k + p) - arr); pi((p - k) - arr);
    pi(p < k); pi(p > k); pi(p <= k); pi(p >= k); pi(p == k); pi(p != k);
  }
  pi(q - p); pi(p - q);
  pi(p < q); pi(p > q); pi(p <= q); pi(p >= q); pi(p == q); pi(p != q);
  pi(p < r); pi(p > r); pi(p <= r); pi(p >= r); pi(p == r); pi(p != r);
  pi(n == 0); pi(n != 0); pi(n == p); pi(p != n); pi(n < p); pi(n >= p);
  fp = f; np = 0;
  pi(fp == 0); pi(fp != 0); pi(np == 0); pi(np != 0);
  pi(fp == f); pi(np == fp); pi(fp != np); pi(fp(1));
  print_char('\n');
}

int main() {
  int sel; int i; int j; double inf; int loc[2];
  sel = read_int();
  zero = 0; neg1 = -1;
  iv[0] = 0; iv[1] = 1; iv[2] = -1; iv[3] = 7; iv[4] = -7; iv[5] = 63;
  iv[6] = 64; iv[7] = -9223372036854775807 - 1;
  iv[8] = 9223372036854775807; iv[9] = 3;
  inf = 1e308 * 10.0;
  dv[0] = 0.0; dv[1] = 1.5; dv[2] = -2.25; dv[3] = inf; dv[4] = -inf;
  dv[5] = inf - inf; dv[6] = -0.0; dv[7] = 3.0;
  if (sel == 1) print_int(iv[3] / zero);
  if (sel == 2) print_int(iv[3] % zero);
  if (sel == 3) print_double(dv[1] / dv[0]);
  if (sel == 4) print_int(iv[3] << neg1);
  if (sel == 5) print_int(iv[3] >> iv[6]);
  if (sel == 6) print_int(iv[3] << iv[6]);
  if (sel == 7) print_int(iv[3] >> neg1);
  if (sel == 8) print_int(loc - arr);
  if (sel == 9) print_double(iv[3] / dv[6]);
  for (i = 0; i < 10; i++)
    for (j = 0; j < 10; j++)
      ints(iv[i], iv[j]);
  for (i = 0; i < 8; i++)
    for (j = 0; j < 8; j++)
      dbls(dv[i], dv[j]);
  for (i = 0; i < 10; i++)
    for (j = 0; j < 8; j++)
      mixed(iv[i], dv[j]);
  ptrs();
  return 0;
}
)";

SuiteProgram miniProgram(const std::string &Name, const char *Source) {
  SuiteProgram P;
  P.Name = Name;
  P.Source = Source;
  return P;
}

TEST(BinOpDiff, MatrixMatchesAcrossEngines) {
  SuiteProgram P = miniProgram("binops", BinOpMatrixSource);
  CompiledSuiteProgram C = compileProgramOnly(P);
  ASSERT_TRUE(C.Ok) << C.Error;
  RunResult A = runAllEngines(C, {"matrix", "0", 1}, {}, "matrix");
  ASSERT_TRUE(A.Ok) << A.Error;
  // Wrapped, not trapped: INT64_MIN / -1 and INT64_MIN % -1.
  EXPECT_NE(A.Output.find("-9223372036854775808 0 "), std::string::npos);
  // NaN vs NaN: < > == are 0, <= >= != are 1 (three-way compare).
  EXPECT_TRUE(std::regex_search(
      A.Output, std::regex("-?nan -?nan -?nan -?nan 0 0 1 1 0 1 \n")))
      << A.Output;
}

TEST(BinOpDiff, StepLimitMidMatrixMatchesAcrossEngines) {
  SuiteProgram P = miniProgram("binops", BinOpMatrixSource);
  CompiledSuiteProgram C = compileProgramOnly(P);
  ASSERT_TRUE(C.Ok) << C.Error;
  ProgramInput Input{"matrix", "0", 1};
  uint64_t Steps = runProgram(C.unit(), *C.Cfgs, Input, {}).StepsExecuted;
  for (uint64_t Max : {Steps / 3, Steps / 2, Steps - 1}) {
    InterpOptions Limits;
    Limits.MaxSteps = Max;
    RunResult A = runAllEngines(C, Input, Limits,
                                "MaxSteps=" + std::to_string(Max));
    EXPECT_EQ(A.LimitHit, RunLimit::Steps);
  }
}

TEST(BinOpDiff, FailingOperandsMatchAcrossEngines) {
  SuiteProgram P = miniProgram("binops", BinOpMatrixSource);
  CompiledSuiteProgram C = compileProgramOnly(P);
  ASSERT_TRUE(C.Ok) << C.Error;
  for (int Sel = 1; Sel <= 9; ++Sel) {
    RunResult A = runAllEngines(C, {"fail", std::to_string(Sel), 1}, {},
                                "sel " + std::to_string(Sel));
    EXPECT_FALSE(A.Ok) << "sel " << Sel;
  }
}

/// The constant-folded spelling of INT64_MIN / -1 (which branch
/// prediction and the engines must not trap on) and the runtime one.
TEST(BinOpDiff, Int64MinByMinusOneWrapsInEveryEngine) {
  SuiteProgram P = miniProgram("int64min", R"(
int main() {
  int m; int d;
  m = -9223372036854775807 - 1; d = -1;
  print_int(m / d); print_char(' '); print_int(m % d); print_char(' ');
  print_int((-9223372036854775807 - 1) / -1); print_char(' ');
  print_int((-9223372036854775807 - 1) % -1);
  if (((-9223372036854775807 - 1) / -1) < 0) return 1;
  return 0;
}
)");
  CompiledSuiteProgram C = compileProgramOnly(P);
  ASSERT_TRUE(C.Ok) << C.Error;
  RunResult A = runAllEngines(C, {"none", "", 1}, {}, "int64min");
  EXPECT_TRUE(A.Ok) << A.Error;
  EXPECT_EQ(A.Output, "-9223372036854775808 0 -9223372036854775808 0");
  EXPECT_EQ(A.ExitCode, 1);
}

//===----------------------------------------------------------------------===//
// The runtime: memory faults, builtins and the input readers, on every
// engine. The native tier's C runtime is the implementation these are
// checked against.
//===----------------------------------------------------------------------===//

/// The input's first integer selects one case; the read_int / read_char
/// cases consume the rest of the input. Cases 1-20 fault on memory (null,
/// global, stack and heap bounds, (int *)5, use-after-free, double free,
/// bad frees, bad print_str arguments), 22-31 exercise the other builtins,
/// struct copies and calls through null function pointers. 32-39 take int
/// and pointer-offset arithmetic past the int64 bounds, where it wraps.
/// 40 carries every payload kind through heap and global cells: a pointer
/// whose offset needs more than 32 bits, a heap pointer, a function
/// pointer and -0.0.
const char *RuntimeMatrixSource = R"(
struct P { int x; int y; double w; };
struct C { int *h; int (*f)(int); double z; };

int g[4];
struct P gp;
struct C gc[2];

void show(struct P q) {
  print_int(q.x); print_char(' '); print_int(q.y); print_char(' ');
  print_double(q.w); print_char('\n'); q.x = 99;
}

void leave(int d) { if (d == 0) exit(7); leave(d - 1); print_int(d); }

int one() { return g[0]; }

int twice(int v) { return v * 2; }

int thrice(int v) { return v * 3; }

int main() {
  int sel; int a[3]; int *p; int *q; char *s; int v; int i;
  struct P loc; struct P cp; char word[3];
  int (*fp)(int); struct P *sp; struct C *cs;
  sel = read_int();
  g[0] = 1;
  if (sel == 1) { p = NULL; print_int(*p); }
  if (sel == 2) { p = NULL; *p = 1; }
  if (sel == 3) print_int(g[-100]);
  if (sel == 4) g[1000000] = 1;
  if (sel == 5) print_int(a[100000]);
  if (sel == 6) a[-1000] = 2;
  if (sel == 7) { p = (int *)malloc(4); print_int(p[4]); }
  if (sel == 8) { p = (int *)malloc(4); p[-1] = 3; }
  if (sel == 9) { p = (int *)5; print_int(*p); }
  if (sel == 10) { p = (int *)5; *p = 4; }
  if (sel == 11) { p = (int *)malloc(4); free(p); print_int(*p); }
  if (sel == 12) { p = (int *)malloc(4); free(p); *p = 5; }
  if (sel == 13) {
    p = (int *)malloc(4); free(p); q = (int *)malloc(4);
    q[0] = 6; print_int(q[0]); print_int(*p);
  }
  if (sel == 14) {
    p = (int *)malloc(4); free(p); q = (int *)malloc(4); p[1] = 7;
  }
  if (sel == 15) { p = (int *)malloc(4); free(p); free(p); }
  if (sel == 16) free(g);
  if (sel == 17) { p = (int *)malloc(4); free(p + 1); }
  if (sel == 18) free(NULL);
  if (sel == 19) print_str(0);
  if (sel == 20) {
    s = (char *)malloc(3); s[0] = 'a'; s[1] = 'b'; s[2] = 'c'; print_str(s);
  }
  if (sel == 21) {
    word[0] = 'x'; word[1] = 'y'; word[2] = 'z'; print_str(word);
  }
  if (sel == 22) print_double(sqrt(-2.0));
  if (sel == 23) { print_str("before"); abort(); print_str("after"); }
  if (sel == 24) { print_str("deep "); leave(5); }
  if (sel == 25) {
    p = (int *)malloc(0); q = (int *)malloc(-3);
    print_int(p == NULL); print_int(q == NULL); free(p); free(q);
  }
  if (sel == 26) {
    srand(42); v = rand(); print_int(v); print_char(' ');
    print_int(rand()); print_char(' '); srand(42); print_int(rand() == v);
    srand(-1); print_char(' '); print_int(rand());
  }
  if (sel == 27)
    for (i = 0; i < 4; i++) { print_int(read_char()); print_char(' '); }
  if (sel == 28) {
    for (i = 0; i < 3; i++) { print_int(read_int()); print_char(' '); }
    print_int(read_char());
  }
  if (sel == 29) {
    loc.x = one(); loc.y = 2; loc.w = 0.5; cp = loc; cp.x = 10; gp = cp;
    show(loc); show(cp); show(gp); print_int(loc.x);
  }
  if (sel == 30) { fp = NULL; print_int(fp(1)); }
  if (sel == 31) { fp = twice; print_int(fp(21)); fp = 0; print_int(fp(2)); }
  if (sel == 32) { v = -9223372036854775807 - 1; print_int(-v); }
  if (sel == 33) {
    v = 9223372036854775807; print_int(++v); print_char(' ');
    print_int(v--); print_char(' '); print_int(v);
  }
  if (sel == 34) {
    p = (int *)malloc(4); v = 4611686018427387904;
    print_int(p + v + v == 0); print_int(p - v - v - v == 0);
  }
  if (sel == 35) print_int((int *)-9223372036854775807 - (int *)5);
  if (sel == 36) { p = (int *)malloc(4) + 1; p[9223372036854775807] = 1; }
  if (sel == 37) {
    p = (int *)9223372036854775807; p++; print_int((int)p); print_char(' ');
    p--; print_int((int)p);
  }
  if (sel == 38) { sp = (struct P *)9223372036854775807; print_int(sp->y); }
  if (sel == 39) { sp = (struct P *)9223372036854775807; print_int((*sp).y); }
  if (sel == 40) {
    v = read_int(); p = (int *)v; q = p + 3;
    print_int(q - p); print_char(' '); print_int((int)q); print_char(' ');
    print_int(p < q); print_int(p == (int *)0); print_char(' ');
    cs = (struct C *)malloc(3);
    cs->h = (int *)malloc(1); cs->h[0] = 10; cs->f = twice; cs->z = -0.0;
    gc[1] = *cs;
    print_int(cs->f(21)); print_char(' '); fp = gc[1].f;
    print_int(fp(21)); print_char(' '); print_int(gc[1].h[0]);
    print_char(' '); print_double(gc[1].z); print_char(' ');
    print_int(gc[1].f == twice); print_int(gc[1].f == thrice);
    print_int(gc[0].f == twice); print_int(gc[1].h == (int *)0);
    print_int(gc[0].h == (int *)0); print_int(gc[1].h == cs->h);
    print_int(!cs); print_char(' ');
  }
  print_str("end\n");
  return sel;
}
)";

struct RuntimeCase {
  const char *Input;
  const char *Error; ///< The expected RunResult::Error; "" for a clean run.
  const char *Output;
};

const RuntimeCase RuntimeCases[] = {
    {"1", "null pointer read", ""},
    {"2", "null pointer write", ""},
    {"3", "global read out of bounds", ""},
    {"4", "global write out of bounds", ""},
    {"5", "stack read out of bounds", ""},
    {"6", "stack write out of bounds", ""},
    {"7", "heap read out of bounds", ""},
    {"8", "heap write out of bounds", ""},
    {"9", "null pointer read", ""},
    {"10", "null pointer write", ""},
    {"11", "use-after-free read", ""},
    {"12", "use-after-free write", ""},
    {"13", "use-after-free read", "6"},
    {"14", "use-after-free write", ""},
    {"15", "double free", ""},
    {"16", "free of a non-heap pointer", ""},
    {"17", "free of a non-heap pointer", ""},
    {"18", "free of a non-pointer value", ""},
    {"19", "print_str expects a string pointer", ""},
    {"20", "heap read out of bounds", "abc"},
    {"21", "", "xyzend\n"},
    {"22", "sqrt of a negative number", ""},
    {"23", "abort() called", "before"},
    {"24", "", "deep "},
    {"25", "", "11end\n"},
    {"26", "", "180094359 813853891 1 1202360426end\n"},
    {"27 a", "", "32 97 -1 -1 end\n"},
    {"27", "", "-1 -1 -1 -1 end\n"},
    {"28 5  -x", "", "5 -1 -1 120end\n"},
    {"28   ", "", "-1 -1 -1 -1end\n"},
    {"28 -", "", "-1 -1 -1 -1end\n"},
    // Out-of-range digit runs wrap like every int operation.
    {"28 99999999999999999999", "", "7766279631452241919 -1 -1 -1end\n"},
    {"28 -9223372036854775808", "", "-9223372036854775808 -1 -1 -1end\n"},
    {"29", "", "1 2 0.5\n10 2 0.5\n10 2 0.5\n1end\n"},
    {"30", "indirect call through a non-function value", ""},
    {"31", "indirect call through a non-function value", "42"},
    {"32", "", "-9223372036854775808end\n"},
    {"33", "", "-9223372036854775808 -9223372036854775808 "
               "9223372036854775807end\n"},
    {"34", "", "00end\n"},
    {"35", "", "9223372036854775804end\n"},
    {"36", "heap write out of bounds", ""},
    {"37", "", "-9223372036854775808 9223372036854775807end\n"},
    {"38", "null pointer read", ""},
    {"39", "null pointer read", ""},
    {"40 1099511627776", "", "3 1099511627779 10 42 42 10 -0 1000110 end\n"},
};

TEST(RuntimeDiff, MatrixMatchesAcrossEngines) {
  SuiteProgram P = miniProgram("runtime", RuntimeMatrixSource);
  CompiledSuiteProgram C = compileProgramOnly(P);
  ASSERT_TRUE(C.Ok) << C.Error;
  for (const RuntimeCase &K : RuntimeCases) {
    std::string What = std::string("input '") + K.Input + "'";
    RunResult A = runAllEngines(C, {"case", K.Input, 1}, {}, What);
    EXPECT_EQ(A.Ok, *K.Error == '\0') << What;
    EXPECT_EQ(A.Error, K.Error) << What;
    EXPECT_EQ(A.Output, K.Output) << What;
  }
}

/// exit() from a nested call ends the run with its code, not main's.
TEST(RuntimeDiff, ExitFromNestedCallSetsExitCode) {
  SuiteProgram P = miniProgram("runtime", RuntimeMatrixSource);
  CompiledSuiteProgram C = compileProgramOnly(P);
  ASSERT_TRUE(C.Ok) << C.Error;
  RunResult A = runAllEngines(C, {"case", "24", 1}, {}, "exit");
  EXPECT_TRUE(A.Ok) << A.Error;
  EXPECT_EQ(A.ExitCode, 7);
  EXPECT_EQ(A.CallDepthHighWater, 7u);
}

/// Every step limit over the struct case, which makes zero-argument and
/// struct-by-value calls: the run may stop at any point of a call
/// prologue, a struct copy or a builtin.
TEST(RuntimeDiff, StepLimitSweepMatchesAcrossEngines) {
  SuiteProgram P = miniProgram("runtime", RuntimeMatrixSource);
  CompiledSuiteProgram C = compileProgramOnly(P);
  ASSERT_TRUE(C.Ok) << C.Error;
  ProgramInput Input{"case", "29", 1};
  uint64_t Steps = runProgram(C.unit(), *C.Cfgs, Input, {}).StepsExecuted;
  ASSERT_GT(Steps, 100u);
  for (uint64_t Max = 1; Max < Steps; ++Max) {
    InterpOptions Limits;
    Limits.MaxSteps = Max;
    RunResult A = runAllEngines(C, Input, Limits,
                                "MaxSteps=" + std::to_string(Max));
    EXPECT_EQ(A.LimitHit, RunLimit::Steps);
  }
}

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
        Name.find("_us") == std::string::npos) {
      EXPECT_EQ(Value, It->second) << Name;
    }
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
        Name.find("_us") == std::string::npos) {
      EXPECT_EQ(Value, It->second) << Name;
    }
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
