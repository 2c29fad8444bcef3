//===- tests/test_opt.cpp - Optimizer subsystem tests ----------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for src/opt/: WeightSource construction and rankings, the
/// Pettis–Hansen-style block layout (chaining, cold outlining,
/// determinism), branch hints, the layout-sensitive dynamic cost model
/// (identity == default, reclassification == a real laid-out run, both
/// engines bit-identical), the call-site inliner (every statement form,
/// loop-header callees, differential verification), and byte-stability
/// of the sest-opt-report/1 document across engines and job counts.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "callgraph/CallGraph.h"
#include "estimators/Pipeline.h"
#include "obs/EventLog.h"
#include "obs/Telemetry.h"
#include "opt/OptReport.h"
#include "suite/SuiteRunner.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

using namespace sest;
using namespace sest::test;

namespace {

CallGraph buildCG(Compiled &C) {
  return CallGraph::build(C.unit(), *C.Cfgs);
}

RunResult runWith(Compiled &C, InterpEngine Engine,
                  const std::string &Input = "",
                  const ProgramBlockOrder *Layout = nullptr) {
  ProgramInput In;
  In.Text = Input;
  InterpOptions O;
  O.Engine = Engine;
  O.Layout = Layout;
  RunResult R = runProgram(C.unit(), *C.Cfgs, In, O);
  EXPECT_TRUE(R.Ok) << R.Error;
  return R;
}

/// Exact equality of the profile fields the inliner maps back.
void expectMappedEqual(const Profile &Base, const Profile &Mapped) {
  ASSERT_EQ(Base.Functions.size(), Mapped.Functions.size());
  for (size_t F = 0; F < Base.Functions.size(); ++F) {
    EXPECT_EQ(Base.Functions[F].EntryCount,
              Mapped.Functions[F].EntryCount)
        << "fn " << F;
    EXPECT_EQ(Base.Functions[F].BlockCounts,
              Mapped.Functions[F].BlockCounts)
        << "fn " << F;
    EXPECT_EQ(Base.Functions[F].ArcCounts, Mapped.Functions[F].ArcCounts)
        << "fn " << F;
  }
  EXPECT_EQ(Base.CallSiteCounts, Mapped.CallSiteCounts);
}

const char *LoopyProgram = R"(
int work(int n) {
  int s = 0;
  int i = 0;
  while (i < n) {
    if (i % 3 == 0)
      s = s + 2;
    else
      s = s - 1;
    i = i + 1;
  }
  return s;
}
int main() {
  print_int(work(50));
  return 0;
}
)";

//===----------------------------------------------------------------------===//
// WeightSource
//===----------------------------------------------------------------------===//

TEST(WeightSourceTest, ProfileWeightsMirrorProfile) {
  auto C = compile(LoopyProgram);
  ASSERT_TRUE(C);
  RunResult R = run(*C);
  opt::WeightSource W =
      opt::weightsFromProfile(C->unit(), R.TheProfile);
  EXPECT_EQ(W.Origin, "profile");
  const FunctionDecl *Work = C->fn("work");
  ASSERT_NE(Work, nullptr);
  uint32_t Fid = Work->functionId();
  const FunctionProfile &FP = R.TheProfile.Functions[Fid];
  for (uint32_t B = 0; B < FP.BlockCounts.size(); ++B)
    EXPECT_EQ(W.blockWeight(Fid, B), FP.BlockCounts[B]);
  EXPECT_EQ(W.functionWeight(Fid), 1.0);
  // Out-of-range accessors are total.
  EXPECT_EQ(W.blockWeight(999, 0), 0.0);
  EXPECT_EQ(W.callSiteWeight(999), -1.0);
}

TEST(WeightSourceTest, RankingsAreDeterministicHotFirst) {
  auto C = compile(R"(
int a() { return 1; }
int b() { return 2; }
int c() { return 3; }
int main() {
  int i = 0;
  int s = 0;
  while (i < 4) { s = s + b(); i = i + 1; }
  s = s + a() + c();
  print_int(s);
  return 0;
}
)");
  ASSERT_TRUE(C);
  RunResult R = run(*C);
  opt::WeightSource W =
      opt::weightsFromProfile(C->unit(), R.TheProfile);
  std::vector<opt::RankedFunction> Fns =
      opt::rankFunctions(C->unit(), W);
  ASSERT_GE(Fns.size(), 4u);
  // b (4 calls) before main (1 entry)... both before the tied a/c,
  // which keep function-id order.
  EXPECT_EQ(Fns[0].F->name(), "b");
  const auto posOf = [&](const char *N) {
    return std::find_if(Fns.begin(), Fns.end(), [&](const auto &X) {
             return X.F->name() == N;
           }) -
           Fns.begin();
  };
  EXPECT_LT(posOf("a"), posOf("c")) << "equal weights must keep id order";

  CallGraph CG = buildCG(*C);
  std::vector<opt::RankedCallSite> Sites = opt::rankCallSites(CG, W);
  ASSERT_FALSE(Sites.empty());
  EXPECT_EQ(Sites[0].Site->Callee->name(), "b");
  for (size_t I = 1; I < Sites.size(); ++I)
    EXPECT_GE(Sites[I - 1].Weight, Sites[I].Weight);
}

//===----------------------------------------------------------------------===//
// Block layout
//===----------------------------------------------------------------------===//

TEST(LayoutTest, HotArcBecomesFallThrough) {
  auto C = compile(LoopyProgram);
  ASSERT_TRUE(C);
  RunResult R = run(*C);
  opt::WeightSource W =
      opt::weightsFromProfile(C->unit(), R.TheProfile);
  opt::ProgramLayout PL =
      opt::computeBlockLayout(C->unit(), *C->Cfgs, W);
  const ProgramBlockOrder Order = PL.blockOrder();

  // The laid-out run must spend at least as many transfers falling
  // through as the source-order run.
  RunResult Laid = runWith(*C, InterpEngine::Bytecode, "", &Order);
  EXPECT_EQ(Laid.Output, R.Output);
  EXPECT_GE(Laid.LayoutCost.FallThrough, R.LayoutCost.FallThrough);
  EXPECT_LE(Laid.LayoutCost.cost(), R.LayoutCost.cost());
}

TEST(LayoutTest, ZeroWeightsGiveIdentity) {
  auto C = compile(LoopyProgram);
  ASSERT_TRUE(C);
  opt::WeightSource W; // all weights absent == zero
  W.Origin = "empty";
  opt::ProgramLayout PL =
      opt::computeBlockLayout(C->unit(), *C->Cfgs, W);
  for (const opt::FunctionLayout &F : PL.Functions) {
    if (!F.Order.empty()) {
      EXPECT_TRUE(F.isIdentity());
    }
  }
}

TEST(LayoutTest, ColdBlocksOutlinedPastBoundary) {
  auto C = compile(R"(
int main() {
  int x = read_int();
  int i = 0;
  int s = 0;
  while (i < 100) { s = s + i; i = i + 1; }
  if (x == 12345) {
    print_str("rare path\n");
    s = 0;
  }
  print_int(s);
  return 0;
}
)");
  ASSERT_TRUE(C);
  RunResult R = run(*C, "7");
  opt::WeightSource W =
      opt::weightsFromProfile(C->unit(), R.TheProfile);
  opt::ProgramLayout PL =
      opt::computeBlockLayout(C->unit(), *C->Cfgs, W);
  const FunctionDecl *Main = C->fn("main");
  ASSERT_NE(Main, nullptr);
  const opt::FunctionLayout &FL = PL.Functions[Main->functionId()];
  ASSERT_LT(FL.FirstColdPos, FL.Order.size());
  const FunctionProfile &FP = R.TheProfile.Functions[Main->functionId()];
  double Hottest = 0.0;
  for (double N : FP.BlockCounts)
    Hottest = std::max(Hottest, N);
  // Every outlined block is below the cold threshold, and the
  // never-executed "rare path" block is among them.
  bool SawNeverRun = false;
  for (uint32_t P = FL.FirstColdPos; P < FL.Order.size(); ++P) {
    double N = FP.BlockCounts[FL.Order[P]];
    EXPECT_LT(N, opt::LayoutOptions().ColdFraction * Hottest)
        << "block " << FL.Order[P] << " is not cold";
    SawNeverRun = SawNeverRun || N == 0.0;
  }
  EXPECT_TRUE(SawNeverRun) << "the rare path was not outlined";
}

TEST(LayoutTest, DeterministicAndPositionConsistent) {
  auto C = compile(LoopyProgram);
  ASSERT_TRUE(C);
  RunResult R = run(*C);
  opt::WeightSource W =
      opt::weightsFromProfile(C->unit(), R.TheProfile);
  opt::ProgramLayout A = opt::computeBlockLayout(C->unit(), *C->Cfgs, W);
  opt::ProgramLayout B = opt::computeBlockLayout(C->unit(), *C->Cfgs, W);
  ASSERT_EQ(A.Functions.size(), B.Functions.size());
  for (size_t F = 0; F < A.Functions.size(); ++F) {
    EXPECT_EQ(A.Functions[F].Order, B.Functions[F].Order);
    // Pos is the inverse permutation of Order.
    const opt::FunctionLayout &FL = A.Functions[F];
    for (uint32_t P = 0; P < FL.Order.size(); ++P)
      EXPECT_EQ(FL.Pos[FL.Order[P]], P);
    // Entry block first.
    if (!FL.Order.empty()) {
      EXPECT_EQ(FL.Order[0], 0u);
    }
  }
}

TEST(LayoutTest, BranchHintsMarkNeverTakenArcs) {
  auto C = compile(R"(
int main() {
  int i = 0;
  while (i < 20) {
    if (i < 0)
      print_str("impossible\n");
    i = i + 1;
  }
  print_int(i);
  return 0;
}
)");
  ASSERT_TRUE(C);
  RunResult R = run(*C);
  opt::WeightSource W =
      opt::weightsFromProfile(C->unit(), R.TheProfile);
  opt::BranchHints H =
      opt::computeBranchHints(C->unit(), *C->Cfgs, W);
  // The i<0 branch never fires: one arc out of an executed multi-way
  // block has zero weight.
  EXPECT_GE(H.NeverTaken.size(), 1u);
  for (const opt::BranchHints::ColdArc &A : H.NeverTaken)
    EXPECT_EQ(W.arcWeight(A.Fid, A.Block, A.Slot), 0.0);
}

//===----------------------------------------------------------------------===//
// Layout-sensitive cost model
//===----------------------------------------------------------------------===//

TEST(CostModelTest, IdentityLayoutEqualsDefaultRunBothEngines) {
  auto C = compile(LoopyProgram);
  ASSERT_TRUE(C);
  opt::ProgramLayout Id = opt::identityLayout(C->unit(), *C->Cfgs);
  const ProgramBlockOrder Order = Id.blockOrder();
  for (InterpEngine E : {InterpEngine::Ast, InterpEngine::Bytecode}) {
    RunResult Plain = runWith(*C, E);
    RunResult Laid = runWith(*C, E, "", &Order);
    EXPECT_EQ(Plain.LayoutCost, Laid.LayoutCost);
  }
}

TEST(CostModelTest, EnginesCountIdenticallyUnderAnyLayout) {
  auto C = compile(LoopyProgram);
  ASSERT_TRUE(C);
  RunResult R = run(*C);
  opt::WeightSource W =
      opt::weightsFromProfile(C->unit(), R.TheProfile);
  opt::ProgramLayout PL =
      opt::computeBlockLayout(C->unit(), *C->Cfgs, W);
  const ProgramBlockOrder Order = PL.blockOrder();
  RunResult Ast = runWith(*C, InterpEngine::Ast, "", &Order);
  RunResult Bc = runWith(*C, InterpEngine::Bytecode, "", &Order);
  EXPECT_EQ(Ast.LayoutCost, Bc.LayoutCost);
  EXPECT_GT(Bc.LayoutCost.Calls, 0u);
  EXPECT_EQ(Bc.LayoutCost.Calls, Bc.LayoutCost.Returns);
}

TEST(CostModelTest, ReclassificationMatchesRealLaidOutRun) {
  auto C = compile(LoopyProgram);
  ASSERT_TRUE(C);
  RunResult Base = run(*C);
  opt::WeightSource W =
      opt::weightsFromProfile(C->unit(), Base.TheProfile);
  opt::ProgramLayout PL =
      opt::computeBlockLayout(C->unit(), *C->Cfgs, W);
  const ProgramBlockOrder Order = PL.blockOrder();
  LayoutCostCounters Predicted = opt::reclassifyLayoutCost(
      C->unit(), *C->Cfgs, Base.TheProfile, &Order, Base.LayoutCost);
  RunResult Real = runWith(*C, InterpEngine::Bytecode, "", &Order);
  EXPECT_EQ(Predicted, Real.LayoutCost);
}

//===----------------------------------------------------------------------===//
// Inliner
//===----------------------------------------------------------------------===//

/// Inlines everything plannable under profile weights and checks the
/// differential: identical output/exit and an exactly mapped profile,
/// on both engines.
void checkInlineDifferential(const std::string &Source,
                             const std::string &Input = "",
                             size_t ExpectSites = 1) {
  for (InterpEngine E : {InterpEngine::Ast, InterpEngine::Bytecode}) {
    auto Base = compile(Source);
    ASSERT_TRUE(Base);
    RunResult BaseRun = runWith(*Base, E, Input);

    auto Mut = compile(Source);
    ASSERT_TRUE(Mut);
    CallGraph CG = buildCG(*Mut);
    opt::WeightSource W =
        opt::weightsFromProfile(Mut->unit(), BaseRun.TheProfile);
    opt::InlinePlan Plan =
        opt::planInlining(Mut->unit(), *Mut->Cfgs, CG, W);
    ASSERT_GE(Plan.Sites.size(), ExpectSites);
    opt::InlineMap Map =
        opt::applyInlining(*Mut->Ctx, *Mut->Cfgs, Plan);
    EXPECT_EQ(Map.Applied.size(), Plan.Sites.size());

    RunResult InlRun = runWith(*Mut, E, Input);
    EXPECT_EQ(InlRun.Output, BaseRun.Output);
    EXPECT_EQ(InlRun.ExitCode, BaseRun.ExitCode);
    EXPECT_LT(InlRun.LayoutCost.Calls, BaseRun.LayoutCost.Calls);

    Profile Mapped = opt::mapInlinedProfile(Map, InlRun.TheProfile);
    expectMappedEqual(BaseRun.TheProfile, Mapped);
    opt::InlineVerifyResult V =
        opt::compareInlinedRun(BaseRun, InlRun, Map);
    EXPECT_TRUE(V.Match) << V.Detail;
  }
}

TEST(InlineTest, AssignFormInLoop) {
  checkInlineDifferential(R"(
int add(int a, int b) { return a + b; }
int main() {
  int i = 0;
  int s = 0;
  while (i < 10) {
    s = add(s, i);
    i = i + 1;
  }
  print_int(s);
  return 0;
}
)");
}

TEST(InlineTest, DiscardDeclInitAndAssignForms) {
  checkInlineDifferential(R"(
int counter = 0;
int bump(int d) { counter = counter + d; return counter; }
int main() {
  bump(3);
  int x = bump(4);
  int y = 0;
  y = bump(5);
  print_int(counter + x + y);
  return 0;
}
)",
                          "", 3);
}

TEST(InlineTest, LoopHeaderCalleeEntryMapsBackExactly) {
  // Regression: the callee's entry block doubles as its loop header, so
  // in-region back edges re-enter the cloned entry. Counting region
  // entries through that clone over-counts by the iteration count; the
  // dedicated trampoline block keeps the map-back exact.
  checkInlineDifferential(R"(
int pos = 0;
int skip(int n) {
  while (pos < n)
    pos = pos + 1;
  return pos;
}
int main() {
  int r = 0;
  int i = 0;
  while (i < 6) {
    r = skip(i * 3);
    i = i + 1;
  }
  print_int(r + pos);
  return 0;
}
)");
}

TEST(InlineTest, CalleeWithBranchesAndMultipleReturns) {
  checkInlineDifferential(R"(
int classify(int v) {
  if (v < 0)
    return 0 - 1;
  if (v == 0)
    return 0;
  return 1;
}
int main() {
  int i = 0 - 5;
  int s = 0;
  while (i < 6) {
    int c = classify(i);
    s = s + c;
    i = i + 1;
  }
  print_int(s);
  return 0;
}
)");
}

TEST(InlineTest, PlansSkipRecursionAndRespectTopK) {
  auto C = compile(R"(
int fact(int n) {
  if (n <= 1)
    return 1;
  return n * fact(n - 1);
}
int twice(int v) { return v + v; }
int main() {
  print_int(fact(6) + twice(4));
  return 0;
}
)");
  ASSERT_TRUE(C);
  RunResult R = run(*C);
  CallGraph CG = buildCG(*C);
  opt::WeightSource W =
      opt::weightsFromProfile(C->unit(), R.TheProfile);
  opt::InlineOptions Budget;
  Budget.TopK = 1;
  opt::InlinePlan Plan =
      opt::planInlining(C->unit(), *C->Cfgs, CG, W, Budget);
  EXPECT_LE(Plan.Sites.size(), 1u);
  for (const opt::InlineDecision &D : Plan.Sites)
    EXPECT_NE(D.Caller, D.Callee) << "self-recursion must not inline";
}

//===----------------------------------------------------------------------===//
// Opt report
//===----------------------------------------------------------------------===//

class OptReportTest : public ::testing::Test {
protected:
  static std::vector<CompiledSuiteProgram>
  compileSubset(InterpEngine Engine) {
    InterpOptions O;
    O.Engine = Engine;
    std::vector<CompiledSuiteProgram> Out;
    for (const char *Name : {"bison", "gs", "cholesky"}) {
      const SuiteProgram *Spec = findSuiteProgram(Name);
      EXPECT_NE(Spec, nullptr) << Name;
      Out.push_back(compileAndProfileProgram(*Spec, O));
      EXPECT_TRUE(Out.back().Ok) << Out.back().Error;
    }
    return Out;
  }
};

TEST_F(OptReportTest, VerifiesAndCrossChecksOnSuitePrograms) {
  std::vector<CompiledSuiteProgram> Programs =
      compileSubset(InterpEngine::Bytecode);
  opt::OptReportOptions O;
  opt::OptSuiteReport Rep = opt::computeOptReport(Programs, O);
  ASSERT_EQ(Rep.Programs.size(), 3u);
  for (const opt::OptProgramReport &P : Rep.Programs) {
    EXPECT_TRUE(P.Ok) << P.Name << ": " << P.Error;
    EXPECT_GT(P.IdentityCost, 0.0) << P.Name;
    ASSERT_EQ(P.Layout.size(), 3u) << P.Name;
    EXPECT_EQ(P.Layout[0].Source, "static");
    EXPECT_EQ(P.Layout[1].Source, "profile");
    EXPECT_EQ(P.Layout[2].Source, "oracle");
    for (const opt::InlineSourceResult &I : P.Inline)
      EXPECT_TRUE(I.Verified) << P.Name << "/" << I.Source << ": "
                              << I.VerifyDetail;
  }
  EXPECT_TRUE(Rep.AllCrossChecksOk);
  EXPECT_TRUE(Rep.AllInlineVerified);
}

TEST_F(OptReportTest, ByteStableAcrossJobsAndEngines) {
  std::vector<CompiledSuiteProgram> Bc =
      compileSubset(InterpEngine::Bytecode);
  std::vector<CompiledSuiteProgram> Ast =
      compileSubset(InterpEngine::Ast);

  opt::OptReportOptions Serial;
  Serial.Jobs = 1;
  opt::OptReportOptions Wide = Serial;
  Wide.Jobs = 4;
  opt::OptReportOptions AstOpts = Serial;
  AstOpts.Engine = InterpEngine::Ast;

  opt::OptSuiteReport R1 = opt::computeOptReport(Bc, Serial);
  opt::OptSuiteReport R4 = opt::computeOptReport(Bc, Wide);
  opt::OptSuiteReport RA = opt::computeOptReport(Ast, AstOpts);
  // AST-walker profiles are the baselines of a bytecode report.
  opt::OptSuiteReport RAB = opt::computeOptReport(Ast, Serial);

  const std::string J1 = opt::optReportJson(R1, Serial);
  EXPECT_EQ(J1, opt::optReportJson(R4, Serial));
  // Engines must agree on every measured number; serialize both under
  // the same options so the self-describing engine label matches too.
  EXPECT_EQ(J1, opt::optReportJson(RA, Serial));
  EXPECT_EQ(J1, opt::optReportJson(RAB, Serial));
  EXPECT_NE(J1.find("\"schema\":\"sest-opt-report/1\""), std::string::npos);
}

/// Scores one suite program and returns the interpreter runs the report
/// itself made (its profiling runs happen before the count starts).
uint64_t optReportRuns(const char *Name, opt::OptProgramReport &Out) {
  std::vector<CompiledSuiteProgram> Programs;
  Programs.push_back(compileAndProfileProgram(*findSuiteProgram(Name)));
  obs::Telemetry Tele;
  Tele.install();
  opt::OptSuiteReport Rep = opt::computeOptReport(Programs);
  Tele.uninstall();
  Out = Rep.Programs.at(0);
  const auto It = Tele.counters().find("interp.runs");
  return It == Tele.counters().end() ? 0
                                     : static_cast<uint64_t>(It->second);
}

TEST(OptReportRuns, BaselinesAreTheProfilingRuns) {
  // Every source applies [11,12,13,14,15] to bison: one inlined run per
  // input serves all three, plus the static-layout cross-check run.
  opt::OptProgramReport P;
  EXPECT_EQ(optReportRuns("bison", P), 6u);
  ASSERT_TRUE(P.Ok) << P.Error;
  ASSERT_EQ(P.Inline.size(), 3u);
  for (const opt::InlineSourceResult &I : P.Inline) {
    EXPECT_EQ(I.Sites, (std::vector<uint32_t>{11, 12, 13, 14, 15}));
    EXPECT_TRUE(I.Verified) << I.Source << ": " << I.VerifyDetail;
    EXPECT_GT(I.CallsRemoved, 0u) << I.Source;
  }
  EXPECT_TRUE(P.VmCrossCheckOk);
}

TEST(OptReportRuns, InlineOrderSeparatesVariants) {
  // espresso's static plan [1,4,11,2] and its profile plan [4,1,11,2]
  // inline the same sites in another order, which builds another
  // program: two sets of inlined runs, plus the cross-check.
  opt::OptProgramReport P;
  EXPECT_EQ(optReportRuns("espresso", P), 11u);
  ASSERT_TRUE(P.Ok) << P.Error;
  ASSERT_EQ(P.Inline.size(), 3u);
  EXPECT_EQ(P.Inline[0].Sites, (std::vector<uint32_t>{1, 4, 11, 2}));
  EXPECT_EQ(P.Inline[1].Sites, (std::vector<uint32_t>{4, 1, 11, 2}));
  EXPECT_EQ(P.Inline[2].Sites, P.Inline[1].Sites);
  for (const opt::InlineSourceResult &I : P.Inline)
    EXPECT_TRUE(I.Verified) << I.Source << ": " << I.VerifyDetail;
}

TEST(OptReportRuns, NonDefaultProfilingOptionsAreNotScored) {
  // The reports take the profiling runs as identity baselines, so a
  // program profiled under a layout (even an identity one) is refused.
  const ProgramBlockOrder Identity;
  InterpOptions O;
  O.Layout = &Identity;
  std::vector<CompiledSuiteProgram> Programs;
  Programs.push_back(
      compileAndProfileProgram(*findSuiteProgram("cholesky"), O));
  ASSERT_TRUE(Programs[0].Ok) << Programs[0].Error;
  EXPECT_FALSE(Programs[0].DefaultRunOptions);

  opt::OptSuiteReport Rep = opt::computeOptReport(Programs);
  ASSERT_EQ(Rep.Programs.size(), 1u);
  EXPECT_FALSE(Rep.Programs[0].Ok);
  EXPECT_NE(Rep.Programs[0].Error.find("non-default run options"),
            std::string::npos)
      << Rep.Programs[0].Error;
  EXPECT_NE(opt::optReportJson(Rep).find("\"ok\":false"),
            std::string::npos);
}

/// A checked-in bench report.
JsonValue benchReport(const char *Name) {
  std::ifstream In(std::string(SEST_BENCH_DIR) + "/" + Name);
  std::stringstream SS;
  SS << In.rdbuf();
  std::optional<JsonValue> Doc = parseJson(SS.str());
  EXPECT_TRUE(Doc.has_value()) << Name;
  return Doc ? *Doc : JsonValue{};
}

/// The "suite" object of a checked-in bench report.
JsonValue baselineSuite(const char *Name) {
  const JsonValue Doc = benchReport(Name);
  const JsonValue *Suite = Doc.find("suite");
  EXPECT_NE(Suite, nullptr) << Name;
  return Suite ? *Suite : JsonValue{};
}

bool flag(const JsonValue *Obj, const char *Key) {
  const JsonValue *V = Obj ? Obj->find(Key) : nullptr;
  return V && V->isBool() && V->BoolVal;
}

TEST(Baselines, CheckedInReportsMeetTheirFloors) {
  // CI byte-compares fresh reports against these files, so these checks
  // hold for every passing build: static layout recovers at least 80% of
  // the profile layout's reduction, the static-oracle search at least
  // 70% of the profile-oracle search's, and every optimized program
  // verified against its profiling runs.
  const JsonValue Opt = baselineSuite("opt_report.json");
  const JsonValue *Layout = Opt.find("layout");
  ASSERT_NE(Layout, nullptr);
  EXPECT_GE(Layout->numberOr("static_recovery_ratio", 0.0), 0.8);
  EXPECT_TRUE(flag(Layout, "meets_floor"));
  EXPECT_TRUE(flag(Layout, "all_crosschecks_ok"));
  EXPECT_TRUE(flag(Opt.find("inline"), "all_verified"));

  const JsonValue Tune = baselineSuite("tune_report.json");
  EXPECT_GE(Tune.numberOr("static_search_recovery", 0.0), 0.7);
  EXPECT_TRUE(flag(&Tune, "meets_floor"));
  EXPECT_TRUE(flag(&Tune, "all_verified"));
}

TEST(Baselines, SuiteStepCountsMatchTheCheckedInReport) {
  // Step counts are deterministic, and every engine counts the same ones
  // (NativeDiffTest), so each input run of bench/suite_report.json is
  // held to its steps exactly, on the engine the report names.
  const JsonValue Report = benchReport("suite_report.json");
  const JsonValue *Engine = Report.find("engine");
  ASSERT_TRUE(Engine && Engine->isString());
  ASSERT_EQ(Engine->StringVal, "bytecode");
  const JsonValue *Programs = Report.find("programs");
  ASSERT_TRUE(Programs && Programs->isArray());
  InterpOptions O;
  O.Engine = InterpEngine::Bytecode;
  std::map<std::string, CompiledSuiteProgram> Fresh;
  for (CompiledSuiteProgram &P : compileAndProfileSuite(O, 0))
    Fresh.emplace(P.Spec->Name, std::move(P));
  ASSERT_EQ(Fresh.size(), Programs->Items.size());
  for (const JsonValue &P : Programs->Items) {
    const JsonValue *Name = P.find("name");
    ASSERT_TRUE(Name && Name->isString());
    auto It = Fresh.find(Name->StringVal);
    ASSERT_NE(It, Fresh.end()) << Name->StringVal;
    ASSERT_TRUE(It->second.Ok) << It->second.Error;
    const JsonValue *Runs = P.find("runs");
    ASSERT_TRUE(Runs && Runs->isArray()) << Name->StringVal;
    const std::vector<SuiteRunStats> &Stats = It->second.RunStats;
    ASSERT_EQ(Runs->Items.size(), Stats.size()) << Name->StringVal;
    for (size_t I = 0; I < Stats.size(); ++I)
      EXPECT_EQ(static_cast<int64_t>(Runs->Items[I].numberOr("steps", -1)),
                static_cast<int64_t>(Stats[I].Steps))
          << Name->StringVal << " input " << Stats[I].InputName;
  }
}

//===----------------------------------------------------------------------===//
// Decision event log (flight recorder)
//===----------------------------------------------------------------------===//

const obs::EventAttr *findAttr(const obs::Event &E, std::string_view Key) {
  for (const obs::EventAttr &A : E.Attrs)
    if (A.Key == Key)
      return &A;
  return nullptr;
}

TEST(EventLogOpt, InlinePlanLogsBudgetWalk) {
  auto C = compile(R"(
int add(int a, int b) { return a + b; }
int rec(int n) {
  if (n <= 0)
    return 0;
  return rec(n - 1);
}
int main() {
  int s = 0;
  int i = 0;
  while (i < 10) { s = add(s, i); i = i + 1; }
  s = s + rec(3);
  print_int(s);
  return 0;
}
)");
  ASSERT_TRUE(C);
  RunResult R = run(*C);
  CallGraph CG = buildCG(*C);
  opt::WeightSource W = opt::weightsFromProfile(C->unit(), R.TheProfile);

  obs::EventLog Log;
  Log.install();
  opt::InlinePlan Plan = opt::planInlining(C->unit(), *C->Cfgs, CG, W);
  Log.uninstall();

  // Every ranked site produced exactly one selected/rejected event.
  ASSERT_EQ(Log.events().size(), 4u);
  const obs::Event *Selected = nullptr;
  std::vector<std::string> Reasons;
  for (const obs::Event &E : Log.events()) {
    if (E.Kind == "inline.site.selected") {
      EXPECT_EQ(Selected, nullptr) << "only the add site qualifies";
      Selected = &E;
    } else {
      ASSERT_EQ(E.Kind, "inline.site.rejected");
      const obs::EventAttr *Reason = findAttr(E, "reason");
      ASSERT_NE(Reason, nullptr);
      Reasons.push_back(Reason->Str);
    }
  }
  // The hot loop-body call is the rank-1 selection...
  ASSERT_NE(Selected, nullptr);
  ASSERT_EQ(Plan.Sites.size(), 1u);
  EXPECT_EQ(Selected->Prov,
            obs::provCallSite(Plan.Sites[0].CallSiteId));
  EXPECT_EQ(findAttr(*Selected, "caller")->Str, "main");
  EXPECT_EQ(findAttr(*Selected, "callee")->Str, "add");
  EXPECT_EQ(findAttr(*Selected, "origin")->Str, "profile");
  EXPECT_EQ(findAttr(*Selected, "rank")->Num, 1.0);
  EXPECT_EQ(findAttr(*Selected, "weight")->Num, 10.0);
  // ...and each rejection names the first disqualifying reason: the
  // self-recursive rec site, the non-statement-form rec() use in a
  // compound expression, and the builtin print_int callee.
  std::sort(Reasons.begin(), Reasons.end());
  EXPECT_EQ(Reasons,
            (std::vector<std::string>{"callee-undefined-or-builtin",
                                      "not-statement-form",
                                      "recursive-or-main"}));

  // A TopK budget of 1 stops the walk right after the first selection:
  // the rank-2 site logs "top-k-budget" and nothing after it is ranked.
  obs::EventLog Tight;
  Tight.install();
  opt::InlineOptions Budget;
  Budget.TopK = 1;
  opt::planInlining(C->unit(), *C->Cfgs, CG, W, Budget);
  Tight.uninstall();
  ASSERT_EQ(Tight.events().size(), 2u);
  EXPECT_EQ(Tight.events()[0].Kind, "inline.site.selected");
  EXPECT_EQ(Tight.events()[1].Kind, "inline.site.rejected");
  EXPECT_EQ(findAttr(Tight.events()[1], "reason")->Str, "top-k-budget");
  EXPECT_EQ(findAttr(Tight.events()[1], "rank")->Num, 2.0);
}

TEST(EventLogOpt, LayoutLogsMergesColdBoundaryAndHints) {
  // The else arm never executes, so under profile weights it is a
  // zero-weight block on a hot branch: cold-outlined by the layout and
  // flagged never-taken by the hint pass.
  auto C = compile(R"(
int main() {
  int i = 0;
  int s = 0;
  while (i < 20) {
    if (i < 100)
      s = s + 1;
    else
      s = s - 1;
    i = i + 1;
  }
  print_int(s);
  return 0;
}
)");
  ASSERT_TRUE(C);
  RunResult R = run(*C);
  opt::WeightSource W = opt::weightsFromProfile(C->unit(), R.TheProfile);

  obs::EventLog Log;
  Log.install();
  opt::ProgramLayout L = opt::computeBlockLayout(C->unit(), *C->Cfgs, W);
  opt::BranchHints H = opt::computeBranchHints(C->unit(), *C->Cfgs, W);
  Log.uninstall();
  ASSERT_FALSE(H.NeverTaken.empty());

  unsigned Merges = 0, Boundaries = 0, Hints = 0;
  for (const obs::Event &E : Log.events()) {
    // Every layout decision anchors to a block of the one function.
    EXPECT_EQ(E.Prov.rfind("blk:main#", 0), 0u) << E.Prov;
    EXPECT_EQ(findAttr(E, "function")->Str, "main");
    EXPECT_EQ(findAttr(E, "origin")->Str, "profile");
    if (E.Kind == "layout.chain.merge") {
      ++Merges;
      EXPECT_NE(findAttr(E, "to"), nullptr);
      EXPECT_GT(findAttr(E, "weight")->Num, 0.0);
    } else if (E.Kind == "layout.cold.boundary") {
      ++Boundaries;
      EXPECT_GE(findAttr(E, "outlined_blocks")->Num, 1.0);
    } else {
      EXPECT_EQ(E.Kind, "layout.hint.never_taken");
      ++Hints;
    }
  }
  EXPECT_GE(Merges, 1u);
  EXPECT_EQ(Boundaries, 1u);
  EXPECT_EQ(Hints, static_cast<unsigned>(H.NeverTaken.size()));
  (void)L;
}

/// The sestc --suite --log decision pass: compile + profile the suite,
/// then walk each ok program once with the default static estimate.
std::string suiteDecisionLog(InterpEngine Engine, unsigned Jobs) {
  obs::EventLog Log;
  Log.install();
  InterpOptions O;
  O.Engine = Engine;
  std::vector<CompiledSuiteProgram> Programs =
      compileAndProfileSuite(O, Jobs);
  EstimatorOptions Est;
  Est.Jobs = 1;
  for (const CompiledSuiteProgram &P : Programs) {
    if (!P.Ok || P.Profiles.empty())
      continue;
    obs::logEvent("program.begin", obs::provProgram(P.Spec->Name));
    ProgramEstimate E = estimateProgram(P.unit(), *P.Cfgs, *P.CG, Est);
    opt::WeightSource W =
        opt::weightsFromEstimate(P.unit(), *P.Cfgs, E, Est);
    opt::computeBlockLayout(P.unit(), *P.Cfgs, W);
    opt::computeBranchHints(P.unit(), *P.Cfgs, W);
    opt::planInlining(P.unit(), *P.Cfgs, *P.CG, W);
  }
  Log.uninstall();
  return Log.jsonl();
}

TEST(EventLogOpt, SuiteDecisionLogByteIdenticalAcrossJobsAndEngines) {
  // The determinism contract of sest-events/1: no wall-clock data and
  // task-order merges, so the rendered document cannot depend on the
  // worker count or the interpreter tier that produced the profiles.
  const std::string Serial =
      suiteDecisionLog(InterpEngine::Bytecode, 1);
  EXPECT_FALSE(Serial.empty());
  EXPECT_NE(Serial.find("\"schema\":\"sest-events/1\""),
            std::string::npos);
  EXPECT_EQ(Serial, suiteDecisionLog(InterpEngine::Bytecode, 2));
  EXPECT_EQ(Serial, suiteDecisionLog(InterpEngine::Bytecode, 8));
  EXPECT_EQ(Serial, suiteDecisionLog(InterpEngine::Ast, 2));
}

TEST(EventLogOpt, DecisionProvenanceResolvesToAccuracyEntities) {
  // Every decision event must name an entity the accuracy report also
  // scores — that join is the whole point of stable provenance IDs.
  std::vector<CompiledSuiteProgram> Programs =
      compileAndProfileSuite(InterpOptions{}, 0);
  std::vector<obs::AccuracyReport> Reports =
      computeSuiteAccuracy(Programs, {}, 1);

  // Per-program entity universes, keyed exactly like prov IDs.
  struct Universe {
    std::set<std::string> Fns;    // "fn:<name>"
    std::set<std::string> Blocks; // "blk:<fn>#<id>"
    std::set<std::string> Sites;  // "cs:<id>"
  };
  std::map<std::string, Universe> ByProgram;
  for (const obs::AccuracyReport &R : Reports) {
    Universe &U = ByProgram[R.Program];
    for (const obs::EntityDivergence &D : R.Blocks.Entities)
      U.Blocks.insert(obs::provBlock(D.Function, D.EntityId));
    for (const obs::EntityDivergence &D : R.Functions.Entities)
      U.Fns.insert(obs::provFunction(D.Function));
    for (const obs::EntityDivergence &D : R.CallSites.Entities)
      U.Sites.insert(obs::provCallSite(D.EntityId));
  }

  obs::EventLog Log;
  Log.install();
  EstimatorOptions Est;
  Est.Jobs = 1;
  for (const CompiledSuiteProgram &P : Programs) {
    if (!P.Ok || P.Profiles.empty())
      continue;
    obs::logEvent("program.begin", obs::provProgram(P.Spec->Name));
    ProgramEstimate E = estimateProgram(P.unit(), *P.Cfgs, *P.CG, Est);
    opt::WeightSource W =
        opt::weightsFromEstimate(P.unit(), *P.Cfgs, E, Est);
    opt::computeBlockLayout(P.unit(), *P.Cfgs, W);
    opt::computeBranchHints(P.unit(), *P.Cfgs, W);
    opt::planInlining(P.unit(), *P.Cfgs, *P.CG, W);
  }
  Log.uninstall();

  const Universe *U = nullptr;
  unsigned Checked = 0;
  for (const obs::Event &E : Log.events()) {
    if (E.Kind == "program.begin") {
      ASSERT_EQ(E.Prov.rfind("prog:", 0), 0u);
      std::string Name = E.Prov.substr(5);
      auto It = ByProgram.find(Name);
      ASSERT_NE(It, ByProgram.end())
          << "program.begin names an unscored program: " << Name;
      U = &It->second;
      continue;
    }
    ASSERT_NE(U, nullptr) << "decision event before any program.begin";
    ++Checked;
    if (E.Prov.rfind("fn:", 0) == 0)
      EXPECT_EQ(U->Fns.count(E.Prov), 1u) << E.Kind << " " << E.Prov;
    else if (E.Prov.rfind("blk:", 0) == 0)
      EXPECT_EQ(U->Blocks.count(E.Prov), 1u) << E.Kind << " " << E.Prov;
    else if (E.Prov.rfind("cs:", 0) == 0)
      EXPECT_EQ(U->Sites.count(E.Prov), 1u) << E.Kind << " " << E.Prov;
    else
      ADD_FAILURE() << "unknown provenance family: " << E.Prov;
  }
  EXPECT_GT(Checked, 100u) << "suite should produce many decisions";
}

} // namespace
