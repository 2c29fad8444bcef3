//===- tests/test_tune.cpp - Pass pipeline + autotuner tests ---------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the composable pass pipeline (src/opt/Pass.h) and the
/// estimator-guided autotuner (src/tune/): TuneConfig serialization and
/// canonicalization, pass-order composability (every order of the three
/// passes yields a differentially verified program), function ordering,
/// refactor equivalence of the canned configs against direct optimizer
/// calls, and byte-stability of the sest-tune-report/1 document across
/// job counts, repeated runs, and the service entry point.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "callgraph/CallGraph.h"
#include "obs/Telemetry.h"
#include "opt/FuncOrder.h"
#include "opt/Inline.h"
#include "opt/Layout.h"
#include "opt/Pass.h"
#include "suite/SuiteRunner.h"
#include "tune/Tune.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace sest;
using namespace sest::test;

namespace {

/// A program with inlinable helpers, a hot loop, and enough defined
/// functions that both layout and function ordering have real work.
const char *TunableSource = R"(
int add(int a, int b) { return a + b; }
int scale(int a) { return a * 3; }
int mul(int a, int b) {
  int r = 0;
  int i;
  for (i = 0; i < b; i++)
    r = add(r, a);
  return r;
}
int rare(int x) {
  if (x > 1000)
    return mul(x, 2);
  return x;
}
int main() {
  int n = read_int();
  int s = 0;
  int i;
  for (i = 0; i < n; i++)
    s = add(s, scale(mul(i, 3)));
  print_int(rare(s));
  return 0;
}
)";

opt::WeightSource profileWeights(Compiled &C, const RunResult &R) {
  return opt::weightsFromProfile(C.unit(), R.TheProfile);
}

RunResult runLaidOut(Compiled &C, const std::string &Input,
                     const ProgramBlockOrder *Layout) {
  ProgramInput In;
  In.Text = Input;
  InterpOptions O;
  O.Layout = Layout;
  return runProgram(C.unit(), *C.Cfgs, In, O);
}

//===----------------------------------------------------------------------===//
// TuneConfig
//===----------------------------------------------------------------------===//

TEST(TuneConfig, OrderStringAndCanonicalization) {
  opt::TuneConfig C;
  EXPECT_EQ(C.orderString(), "inline,layout");

  // TopK == 0 canonicalizes the inline pass away: the hash and order
  // string must not depend on where the dead pass sat.
  opt::TuneConfig A, B;
  A.Order = {opt::PassKind::Inline, opt::PassKind::Layout};
  B.Order = {opt::PassKind::Layout, opt::PassKind::Inline};
  A.Inline.TopK = 0;
  B.Inline.TopK = 0;
  EXPECT_EQ(A.orderString(), "layout");
  EXPECT_EQ(A.contentHash(), B.contentHash());

  // Live knobs must fragment the hash.
  opt::TuneConfig D = C, E = C;
  E.Layout.ColdFraction = 0.2;
  EXPECT_NE(D.contentHash(), E.contentHash());
  // ...but inline knobs are dead when the pass is off.
  opt::TuneConfig F = A;
  F.Inline.MaxCalleeBlocks = 48;
  EXPECT_EQ(A.contentHash(), F.contentHash());
}

TEST(TuneConfig, JsonRoundTrip) {
  opt::TuneConfig C;
  C.Order = {opt::PassKind::Layout, opt::PassKind::Inline,
             opt::PassKind::FuncOrder};
  C.Inline.TopK = 4;
  C.Layout.ColdFraction = 0.05;
  C.FuncOrder.DistanceCost = 2.0;

  opt::TuneConfig Back;
  std::string Err;
  ASSERT_TRUE(opt::TuneConfig::fromJson(C.toJson(), Back, &Err)) << Err;
  EXPECT_EQ(C.contentHash(), Back.contentHash());
  EXPECT_EQ(C.orderString(), Back.orderString());
  EXPECT_EQ(Back.Inline.TopK, 4u);
  EXPECT_DOUBLE_EQ(Back.Layout.ColdFraction, 0.05);
  EXPECT_DOUBLE_EQ(Back.FuncOrder.DistanceCost, 2.0);

  // Unknown keys are rejected, not ignored.
  EXPECT_FALSE(opt::TuneConfig::fromJson(
      R"({"schema":"sest-tune-config/1","passes":["layout"],"bogus":1})",
      Back, &Err));
  EXPECT_FALSE(opt::TuneConfig::fromJson(
      R"({"schema":"sest-tune-config/1","passes":["warp"]})", Back,
      &Err));
  EXPECT_FALSE(opt::TuneConfig::fromJson("not json", Back, &Err));
}

TEST(TuneConfig, ParseOrderStringRejectsBadLists) {
  std::vector<opt::PassKind> Order;
  std::string Err;
  EXPECT_TRUE(
      opt::TuneConfig::parseOrderString("layout,inline,funcorder", Order));
  EXPECT_EQ(Order.size(), 3u);
  EXPECT_FALSE(opt::TuneConfig::parseOrderString("layout,warp", Order, &Err));
  EXPECT_NE(Err.find("warp"), std::string::npos);
  EXPECT_FALSE(
      opt::TuneConfig::parseOrderString("layout,layout", Order, &Err));
  EXPECT_FALSE(opt::TuneConfig::parseOrderString("", Order, &Err));
  EXPECT_FALSE(opt::TuneConfig::parseOrderString("layout,,inline", Order,
                                                 &Err));
}

TEST(TuneConfig, CannedConfigsMatchLegacyModes) {
  opt::TuneConfig C;
  ASSERT_TRUE(opt::TuneConfig::canned("layout", C));
  EXPECT_EQ(C.orderString(), "layout");
  ASSERT_TRUE(opt::TuneConfig::canned("inline", C));
  EXPECT_EQ(C.orderString(), "inline");
  ASSERT_TRUE(opt::TuneConfig::canned("all", C));
  EXPECT_EQ(C.orderString(), "layout,inline"); // historical order
  ASSERT_TRUE(opt::TuneConfig::canned("funcorder", C));
  EXPECT_EQ(C.orderString(), "funcorder");
  EXPECT_FALSE(opt::TuneConfig::canned("everything", C));
}

//===----------------------------------------------------------------------===//
// Pipeline composability
//===----------------------------------------------------------------------===//

/// Every permutation of the three passes must produce a program whose
/// laid-out run matches the baseline differentially (output, exit code,
/// and — through the inline map — the profile).
TEST(Pipeline, AnyPassOrderProducesVerifiedProgram) {
  const std::vector<std::vector<opt::PassKind>> Orders = {
      {opt::PassKind::Layout, opt::PassKind::Inline, opt::PassKind::FuncOrder},
      {opt::PassKind::Layout, opt::PassKind::FuncOrder, opt::PassKind::Inline},
      {opt::PassKind::Inline, opt::PassKind::Layout, opt::PassKind::FuncOrder},
      {opt::PassKind::Inline, opt::PassKind::FuncOrder, opt::PassKind::Layout},
      {opt::PassKind::FuncOrder, opt::PassKind::Layout, opt::PassKind::Inline},
      {opt::PassKind::FuncOrder, opt::PassKind::Inline, opt::PassKind::Layout},
      {opt::PassKind::Layout},
      {opt::PassKind::FuncOrder, opt::PassKind::Inline},
  };
  for (const auto &Order : Orders) {
    auto Base = compile(TunableSource);
    ASSERT_TRUE(Base);
    RunResult BaseRun = run(*Base, "12");

    auto C = compile(TunableSource);
    ASSERT_TRUE(C);
    CallGraph CG = CallGraph::build(C->unit(), *C->Cfgs);
    RunResult ProfRun = run(*C, "12");

    opt::TuneConfig Config;
    Config.Order = Order;
    opt::Pipeline Pipe(Config);
    opt::PipelineResult PR = Pipe.run(*C->Ctx, *C->Cfgs, CG,
                                      profileWeights(*C, ProfRun));

    ProgramBlockOrder BO;
    if (PR.HasLayout)
      BO = PR.Layout.blockOrder();
    RunResult Tuned =
        runLaidOut(*C, "12", PR.HasLayout ? &BO : nullptr);
    ASSERT_TRUE(Tuned.Ok) << "order " << Pipe.config().orderString()
                          << ": " << Tuned.Error;
    EXPECT_EQ(Tuned.Output, BaseRun.Output)
        << "order " << Pipe.config().orderString();
    EXPECT_EQ(Tuned.ExitCode, BaseRun.ExitCode);
    if (PR.HasInline) {
      opt::InlineVerifyResult V =
          opt::compareInlinedRun(BaseRun, Tuned, PR.Inlined);
      EXPECT_TRUE(V.Match)
          << "order " << Pipe.config().orderString() << ": " << V.Detail;
    }
  }
}

/// The canned configs are the refactored form of the legacy hardcoded
/// sequences — their pipeline outcomes must equal direct optimizer
/// calls exactly.
TEST(Pipeline, CannedLayoutEqualsDirectCall) {
  auto C = compile(TunableSource);
  ASSERT_TRUE(C);
  CallGraph CG = CallGraph::build(C->unit(), *C->Cfgs);
  RunResult R = run(*C, "12");

  opt::TuneConfig Config;
  ASSERT_TRUE(opt::TuneConfig::canned("layout", Config));
  opt::PipelineResult PR = opt::Pipeline(Config).run(
      *C->Ctx, *C->Cfgs, CG, profileWeights(*C, R));
  ASSERT_TRUE(PR.HasLayout);
  EXPECT_FALSE(PR.HasInline);

  opt::ProgramLayout Direct = opt::computeBlockLayout(
      C->unit(), *C->Cfgs, profileWeights(*C, R), Config.Layout);
  ASSERT_EQ(PR.Layout.Functions.size(), Direct.Functions.size());
  for (size_t F = 0; F < Direct.Functions.size(); ++F)
    EXPECT_EQ(PR.Layout.Functions[F].Order, Direct.Functions[F].Order)
        << "fn " << F;
}

TEST(Pipeline, CannedInlineEqualsDirectCall) {
  auto Direct = compile(TunableSource);
  ASSERT_TRUE(Direct);
  CallGraph DirectCG = CallGraph::build(Direct->unit(), *Direct->Cfgs);
  RunResult DirectRun = run(*Direct, "12");
  opt::InlinePlan Plan = opt::planInlining(
      Direct->unit(), *Direct->Cfgs, DirectCG,
      profileWeights(*Direct, DirectRun), opt::InlineOptions{});
  opt::InlineMap DirectMap =
      opt::applyInlining(*Direct->Ctx, *Direct->Cfgs, Plan);

  auto C = compile(TunableSource);
  ASSERT_TRUE(C);
  CallGraph CG = CallGraph::build(C->unit(), *C->Cfgs);
  RunResult R = run(*C, "12");
  opt::TuneConfig Config;
  ASSERT_TRUE(opt::TuneConfig::canned("inline", Config));
  opt::PipelineResult PR = opt::Pipeline(Config).run(
      *C->Ctx, *C->Cfgs, CG, profileWeights(*C, R));

  ASSERT_EQ(PR.HasInline, !DirectMap.Applied.empty());
  ASSERT_EQ(PR.Inlined.Applied.size(), DirectMap.Applied.size());
  for (size_t I = 0; I < DirectMap.Applied.size(); ++I) {
    EXPECT_EQ(PR.Inlined.Applied[I].CallSiteId,
              DirectMap.Applied[I].CallSiteId);
    EXPECT_DOUBLE_EQ(PR.Inlined.Applied[I].Weight,
                     DirectMap.Applied[I].Weight);
  }
}

/// After an inline pass, the extended weights must cover every cloned
/// block (non-negative) and zero out the applied sites' call weights.
TEST(Pipeline, ExtendedWeightsCoverInlinedBlocks) {
  auto C = compile(TunableSource);
  ASSERT_TRUE(C);
  CallGraph CG = CallGraph::build(C->unit(), *C->Cfgs);
  RunResult R = run(*C, "12");

  opt::TuneConfig Config; // default: inline,layout
  opt::PipelineResult PR = opt::Pipeline(Config).run(
      *C->Ctx, *C->Cfgs, CG, profileWeights(*C, R));
  ASSERT_TRUE(PR.HasInline);
  for (const auto &[F, G] : C->Cfgs->all()) {
    uint32_t Fid = F->functionId();
    for (size_t B = 0; B < G->size(); ++B)
      EXPECT_GE(PR.W.blockWeight(Fid, static_cast<uint32_t>(B)), 0.0)
          << F->name() << " block " << B;
  }
  for (const opt::InlineDecision &D : PR.Inlined.Applied)
    EXPECT_EQ(PR.W.callSiteWeight(D.CallSiteId), 0.0)
        << "site " << D.CallSiteId;
}

//===----------------------------------------------------------------------===//
// Function ordering
//===----------------------------------------------------------------------===//

TEST(FuncOrder, ChainsCallersWithCallees) {
  auto C = compile(TunableSource);
  ASSERT_TRUE(C);
  CallGraph CG = CallGraph::build(C->unit(), *C->Cfgs);
  RunResult R = run(*C, "12");
  opt::WeightSource W = profileWeights(*C, R);

  opt::FunctionOrder Identity = opt::identityFunctionOrder(C->unit());
  opt::FunctionOrder Ordered =
      opt::computeFunctionOrder(C->unit(), CG, W);
  double IdCost = opt::functionOrderCost(C->unit(), CG, W, Identity);
  double Cost = opt::functionOrderCost(C->unit(), CG, W, Ordered);
  EXPECT_LE(Cost, IdCost);
  EXPECT_DOUBLE_EQ(opt::functionOrderOverlap(C->unit(), Ordered, Ordered),
                   1.0);

  // Deterministic: recomputing yields the same permutation.
  opt::FunctionOrder Again = opt::computeFunctionOrder(C->unit(), CG, W);
  EXPECT_EQ(Ordered.Order, Again.Order);
}

TEST(FuncOrder, IdentityWhenNoPositiveArcs) {
  auto C = compile("int main() { print_int(7); return 0; }");
  ASSERT_TRUE(C);
  CallGraph CG = CallGraph::build(C->unit(), *C->Cfgs);
  RunResult R = run(*C);
  opt::FunctionOrder FO =
      opt::computeFunctionOrder(C->unit(), CG, profileWeights(*C, R));
  EXPECT_TRUE(FO.isIdentity());
  EXPECT_DOUBLE_EQ(opt::functionOrderCost(C->unit(), CG,
                                          profileWeights(*C, R), FO),
                   0.0);
}

//===----------------------------------------------------------------------===//
// The autotuner
//===----------------------------------------------------------------------===//

std::vector<CompiledSuiteProgram> compileTwo() {
  std::vector<CompiledSuiteProgram> Programs;
  for (const char *Name : {"cholesky", "water"}) {
    const SuiteProgram *Spec = findSuiteProgram(Name);
    EXPECT_NE(Spec, nullptr) << Name;
    Programs.push_back(compileAndProfileProgram(*Spec));
    EXPECT_TRUE(Programs.back().Ok) << Programs.back().Error;
  }
  return Programs;
}

TEST(Tune, ReportBytesStableAcrossJobsAndRepeats) {
  std::vector<CompiledSuiteProgram> Programs = compileTwo();
  tune::TuneOptions O;
  O.Budget = 5;
  O.Jobs = 1;
  tune::TuneSuiteReport R1 = tune::computeTuneReport(Programs, O);
  std::string J1 = tune::tuneReportJson(R1, O);

  O.Jobs = 8;
  std::string J8 =
      tune::tuneReportJson(tune::computeTuneReport(Programs, O), O);
  EXPECT_EQ(J1, J8) << "report bytes differ across job counts";

  O.Jobs = 1;
  std::string Again =
      tune::tuneReportJson(tune::computeTuneReport(Programs, O), O);
  EXPECT_EQ(J1, Again) << "report bytes differ across repeated runs";

  EXPECT_NE(J1.find("\"schema\":\"sest-tune-report/1\""),
            std::string::npos);
  EXPECT_TRUE(R1.AllVerified);
  for (const tune::TuneProgramReport &P : R1.Programs)
    ASSERT_TRUE(P.Ok) << P.Name << ": " << P.Error;
}

TEST(Tune, SearchIsSeededAndNeverWorseThanDefault) {
  std::vector<CompiledSuiteProgram> Programs = compileTwo();
  tune::TuneOptions O;
  O.Budget = 6;
  O.Oracles = {tune::TuneOracle::Static};
  tune::TuneSuiteReport R = tune::computeTuneReport(Programs, O);
  for (const tune::TuneProgramReport &P : R.Programs) {
    ASSERT_TRUE(P.Ok);
    ASSERT_EQ(P.Oracles.size(), 1u);
    const tune::TuneOracleResult &S = P.Oracles[0];
    ASSERT_FALSE(S.Trajectory.empty());
    // Trial 0 is always the default configuration; the winner can only
    // improve on it.
    double DefaultObjective = S.Trajectory[0].Objective;
    EXPECT_LE(S.SearchObjective, DefaultObjective) << P.Name;
    EXPECT_LE(S.Evaluations, static_cast<uint64_t>(O.Budget)) << P.Name;
    EXPECT_TRUE(S.Verified) << P.Name << ": " << S.VerifyDetail;
  }

  // A different seed is still deterministic but may walk elsewhere;
  // the same seed must reproduce the identical document.
  std::string A = tune::tuneReportJson(R, O);
  std::string B =
      tune::tuneReportJson(tune::computeTuneReport(Programs, O), O);
  EXPECT_EQ(A, B);
}

TEST(Tune, ExhaustiveSearchWhenBudgetCoversGrid) {
  const SuiteProgram *Spec = findSuiteProgram("cholesky");
  ASSERT_NE(Spec, nullptr);
  std::vector<CompiledSuiteProgram> Programs;
  Programs.push_back(compileAndProfileProgram(*Spec));
  ASSERT_TRUE(Programs.back().Ok);

  tune::TuneOptions O;
  O.Budget = tune::tuneSearchSpaceSize();
  O.Oracles = {tune::TuneOracle::Static};
  tune::TuneSuiteReport R = tune::computeTuneReport(Programs, O);
  ASSERT_EQ(R.Programs.size(), 1u);
  ASSERT_TRUE(R.Programs[0].Ok);
  const tune::TuneOracleResult &S = R.Programs[0].Oracles[0];
  EXPECT_TRUE(S.Exhaustive);
  // Distinct canonical configs number fewer than raw grid points (dead
  // inline dims collapse), but every one must have been evaluated.
  EXPECT_GT(S.Evaluations, 0u);
  EXPECT_LE(S.Evaluations, static_cast<uint64_t>(O.Budget));
}

TEST(Tune, BaselinesAreTheProfilingRuns) {
  // Both oracles' winners run once per input for verification; the
  // identity baselines are the profiling runs, counted before this.
  std::vector<CompiledSuiteProgram> Programs;
  Programs.push_back(compileAndProfileProgram(*findSuiteProgram("cholesky")));
  ASSERT_TRUE(Programs[0].Ok) << Programs[0].Error;
  obs::Telemetry Tele;
  Tele.install();
  tune::TuneSuiteReport R = tune::computeTuneReport(Programs);
  Tele.uninstall();
  ASSERT_TRUE(R.Programs.at(0).Ok) << R.Programs[0].Error;
  EXPECT_TRUE(R.AllVerified);
  const auto It = Tele.counters().find("interp.runs");
  ASSERT_NE(It, Tele.counters().end());
  EXPECT_EQ(It->second, 10.0);
}

TEST(Tune, AstProfiledProgramsTuneLikeBytecodeOnes) {
  InterpOptions Ast;
  Ast.Engine = InterpEngine::Ast;
  std::vector<CompiledSuiteProgram> FromAst, FromBc;
  for (const char *Name : {"cholesky", "water"}) {
    FromAst.push_back(compileAndProfileProgram(*findSuiteProgram(Name), Ast));
    FromBc.push_back(compileAndProfileProgram(*findSuiteProgram(Name)));
  }
  tune::TuneOptions O;
  O.Budget = 5;
  const std::string Bc =
      tune::tuneReportJson(tune::computeTuneReport(FromBc, O), O);
  EXPECT_EQ(Bc, tune::tuneReportJson(tune::computeTuneReport(FromAst, O), O));
  EXPECT_NE(Bc.find("\"all_verified\":true"), std::string::npos);
}

TEST(Tune, NonDefaultProfilingOptionsAreNotScored) {
  const ProgramBlockOrder Identity;
  InterpOptions RunOpts;
  RunOpts.Layout = &Identity;
  std::vector<CompiledSuiteProgram> Programs;
  Programs.push_back(
      compileAndProfileProgram(*findSuiteProgram("cholesky"), RunOpts));
  ASSERT_TRUE(Programs[0].Ok) << Programs[0].Error;

  tune::TuneOptions O;
  O.Budget = 2;
  tune::TuneSuiteReport R = tune::computeTuneReport(Programs, O);
  ASSERT_EQ(R.Programs.size(), 1u);
  EXPECT_FALSE(R.Programs[0].Ok);
  EXPECT_NE(R.Programs[0].Error.find("non-default run options"),
            std::string::npos)
      << R.Programs[0].Error;
  EXPECT_NE(tune::tuneReportJson(R, O).find("\"ok\":false"),
            std::string::npos);
}

TEST(Tune, TuneSourceServesErrorsInBand) {
  std::string Good = tune::tuneSource(TunableSource, "12");
  EXPECT_NE(Good.find("sest-tune-report/1"), std::string::npos);
  EXPECT_NE(Good.find("\"ok\":true"), std::string::npos);

  std::string Bad = tune::tuneSource("int main( {", "");
  EXPECT_NE(Bad.find("\"ok\":false"), std::string::npos);
}

} // namespace
