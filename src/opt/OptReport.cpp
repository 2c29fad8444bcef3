//===- opt/OptReport.cpp - End-to-end optimization scoring ----------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "opt/OptReport.h"

#include "backend/Backend.h"
#include "backend/Native.h"
#include "interp/bytecode/BytecodeCompiler.h"
#include "obs/Parallel.h"
#include "obs/Telemetry.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <tuple>

using namespace sest;
using namespace sest::opt;

const char *sest::opt::optPassSetName(OptPassSet Passes) {
  switch (Passes) {
  case OptPassSet::Layout:
    return "layout";
  case OptPassSet::Inline:
    return "inline";
  case OptPassSet::All:
    return "all";
  }
  return "all";
}

namespace {

/// Adjacent (block, next-block) pairs of a whole-program layout, tagged
/// by function id.
std::set<std::tuple<uint32_t, uint32_t, uint32_t>>
adjacentPairs(const ProgramLayout &L) {
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> Pairs;
  for (uint32_t Fid = 0; Fid < L.Functions.size(); ++Fid) {
    const std::vector<uint32_t> &Order = L.Functions[Fid].Order;
    for (size_t I = 0; I + 1 < Order.size(); ++I)
      Pairs.insert({Fid, Order[I], Order[I + 1]});
  }
  return Pairs;
}

template <typename T>
double jaccard(const std::set<T> &A, const std::set<T> &B) {
  if (A.empty() && B.empty())
    return 1.0;
  size_t Inter = 0;
  for (const T &X : A)
    Inter += B.count(X);
  const size_t Uni = A.size() + B.size() - Inter;
  return Uni ? static_cast<double>(Inter) / static_cast<double>(Uni)
             : 1.0;
}

uint32_t outlinedBlocks(const ProgramLayout &L) {
  uint32_t N = 0;
  for (const FunctionLayout &F : L.Functions)
    N += static_cast<uint32_t>(F.Order.size()) - F.FirstColdPos;
  return N;
}

uint32_t reorderedFunctions(const ProgramLayout &L) {
  uint32_t N = 0;
  for (const FunctionLayout &F : L.Functions)
    if (!F.Order.empty() && !F.isIdentity())
      ++N;
  return N;
}

/// MeasureNative: compile the identity-layout and static-layout native
/// binaries for one program and race them on the evaluation input.
/// \p PredictedCost is the classifier's reclassified layout cost — the
/// layout binary's real counters must reproduce it exactly.
NativeTimingResult measureNative(const TranslationUnit &Unit,
                                 const CfgModule &Cfgs,
                                 const ProgramInput &EvalInput,
                                 const ProgramLayout &StaticLayout,
                                 double PredictedCost,
                                 const InterpOptions &RunOpts) {
  NativeTimingResult N;
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why)) {
    N.Detail = Why;
    return N;
  }
  const bc::BcModule Bc = bc::compileBytecode(Unit, Cfgs);
  backend::NativeLayoutPlan Identity;
  backend::NativeLayoutPlan Plan;
  Plan.Order = StaticLayout.blockOrder();
  Plan.FirstColdPos.reserve(StaticLayout.Functions.size());
  for (const FunctionLayout &F : StaticLayout.Functions)
    Plan.FirstColdPos.push_back(F.FirstColdPos);

  std::string Err;
  const backend::Backend &BE = backend::cBackend();
  auto AId = BE.compile(Unit, Cfgs, Bc, Identity, &Err);
  if (!AId) {
    N.Detail = "identity-layout compile failed: " + Err;
    return N;
  }
  auto ALay = BE.compile(Unit, Cfgs, Bc, Plan, &Err);
  if (!ALay) {
    N.Detail = "layout-true compile failed: " + Err;
    return N;
  }
  N.IdentityCompileMs = AId->compileMs();
  N.LayoutCompileMs = ALay->compileMs();

  // Best-of-3 wall times; the first run's results feed the checks.
  auto Race = [&](const backend::NativeArtifact &A, RunResult &First) {
    double Best = 0.0;
    for (int I = 0; I < 3; ++I) {
      const auto T0 = std::chrono::steady_clock::now();
      RunResult R = A.run(Unit, Cfgs, EvalInput, RunOpts);
      const double Ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - T0)
              .count();
      if (I == 0) {
        First = std::move(R);
        Best = Ms;
      } else {
        Best = std::min(Best, Ms);
      }
    }
    return Best;
  };
  RunResult RId, RLay;
  N.IdentityWallMs = Race(*AId, RId);
  N.LayoutWallMs = Race(*ALay, RLay);
  if (!RId.Ok || !RLay.Ok) {
    N.Detail = "native run failed: " +
               (RId.Ok ? RLay.Error : RId.Error);
    return N;
  }
  N.Available = true;
  N.ProfilesMatch = RId.Output == RLay.Output &&
                    RId.ExitCode == RLay.ExitCode &&
                    profilesIdentical(RId.TheProfile, RLay.TheProfile);
  N.LayoutCostMatch = RLay.LayoutCost.cost() == PredictedCost;
  return N;
}

OptProgramReport scoreProgram(const CompiledSuiteProgram &CSP,
                              const OptReportOptions &Options) {
  obs::ScopedPhase Phase("opt.report.program", CSP.Spec->Name);
  const bool DoLayout = Options.Passes != OptPassSet::Inline;
  const bool DoInline = Options.Passes != OptPassSet::Layout;

  OptProgramReport R;
  R.Name = CSP.Spec->Name;
  R.ProgramHash = hashHex(contentHash64(CSP.Spec->Source));
  R.Error = baselineError(CSP);
  if (!R.Error.empty())
    return R;
  const size_t EvalIdx = CSP.Profiles.size() - 1;
  R.EvalInput = CSP.Spec->Inputs[EvalIdx].Name;
  const TranslationUnit &Unit = CSP.unit();

  // Weight sources: static pipeline, first profile, held-out aggregate.
  const EstimatorOptions &Est = Options.Est;
  const ProgramEstimate Estimate =
      estimateProgram(Unit, *CSP.Cfgs, *CSP.CG, Est);
  const WeightSource WStatic =
      weightsFromEstimate(Unit, *CSP.Cfgs, Estimate, Est);
  const WeightSource WProfile =
      weightsFromProfile(Unit, CSP.Profiles[0], "profile");
  Profile Held = aggregateExcept(CSP.Profiles, EvalIdx);
  const WeightSource WOracle = weightsFromProfile(Unit, Held, "oracle");
  const WeightSource *Sources[3] = {&WStatic, &WProfile, &WOracle};

  // The identity-layout baselines are the profiling runs themselves.
  InterpOptions RunOpts;
  RunOpts.Engine = Options.Engine;
  const SuiteRunStats &EvalBase = CSP.RunStats[EvalIdx];
  const LayoutCostCounters &BaseCost = EvalBase.LayoutCost;
  R.IdentityCost = BaseCost.cost();

  if (DoLayout) {
    ProgramLayout Layouts[3];
    for (int S = 0; S < 3; ++S) {
      Layouts[S] = computeBlockLayout(Unit, *CSP.Cfgs, *Sources[S],
                                      Options.Layout);
      const ProgramBlockOrder Order = Layouts[S].blockOrder();
      const LayoutCostCounters C = reclassifyLayoutCost(
          Unit, *CSP.Cfgs, CSP.Profiles[EvalIdx], &Order, BaseCost);
      LayoutSourceResult LR;
      LR.Source = Sources[S]->Origin;
      LR.Cost = C.cost();
      LR.Reduction =
          R.IdentityCost > 0
              ? (R.IdentityCost - LR.Cost) / R.IdentityCost
              : 0.0;
      LR.ReorderedFunctions = reorderedFunctions(Layouts[S]);
      LR.OutlinedBlocks = outlinedBlocks(Layouts[S]);
      R.Layout.push_back(std::move(LR));

      if (S == 0) {
        // Cross-check: a real run under the static layout must count
        // exactly what the reclassification predicts, and the layout
        // must not change behavior.
        InterpOptions LayoutOpts = RunOpts;
        LayoutOpts.Layout = &Order;
        const RunResult Real = runProgram(
            Unit, *CSP.Cfgs, CSP.Spec->Inputs[EvalIdx], LayoutOpts);
        R.VmCrossCheckOk = Real.Ok && Real.LayoutCost == C &&
                           Real.Output == EvalBase.Output;
      }
    }
    R.LayoutPairOverlap =
        jaccard(adjacentPairs(Layouts[0]), adjacentPairs(Layouts[1]));

    // Branch hints: never-predicted-taken arc agreement.
    const BranchHints HS = computeBranchHints(Unit, *CSP.Cfgs, WStatic);
    const BranchHints HP = computeBranchHints(Unit, *CSP.Cfgs, WProfile);
    std::set<std::tuple<uint32_t, uint32_t, uint32_t>> SS, SP;
    for (const BranchHints::ColdArc &A : HS.NeverTaken)
      SS.insert({A.Fid, A.Block, A.Slot});
    for (const BranchHints::ColdArc &A : HP.NeverTaken)
      SP.insert({A.Fid, A.Block, A.Slot});
    R.StaticNeverTaken = SS.size();
    R.ProfileNeverTaken = SP.size();
    R.HintAgreement = jaccard(SS, SP);

    if (Options.MeasureNative)
      R.Native =
          measureNative(Unit, *CSP.Cfgs, CSP.Spec->Inputs[EvalIdx],
                        Layouts[0], R.Layout[0].Cost, RunOpts);

    // Function ordering (the Pettis–Hansen second half): each source
    // computes its order, all orders are costed under the held-out
    // evaluation profile's call-site counts.
    const WeightSource WEval =
        weightsFromProfile(Unit, CSP.Profiles[EvalIdx], "eval");
    R.FuncOrderIdentityCost =
        functionOrderCost(Unit, *CSP.CG, WEval, identityFunctionOrder(Unit));
    FunctionOrder Orders[3];
    for (int S = 0; S < 3; ++S) {
      Orders[S] = computeFunctionOrder(Unit, *CSP.CG, *Sources[S]);
      FuncOrderSourceResult FR;
      FR.Source = Sources[S]->Origin;
      FR.Cost = functionOrderCost(Unit, *CSP.CG, WEval, Orders[S]);
      FR.Reduction = R.FuncOrderIdentityCost > 0
                         ? (R.FuncOrderIdentityCost - FR.Cost) /
                               R.FuncOrderIdentityCost
                         : 0.0;
      FR.NumChains = Orders[S].NumChains;
      FR.Reordered = !Orders[S].isIdentity();
      R.FuncOrder.push_back(std::move(FR));
    }
    R.FuncOrderOverlap = functionOrderOverlap(Unit, Orders[0], Orders[1]);
  }

  if (DoInline) {
    TuneConfig InlineOnly;
    InlineOnly.Order = {PassKind::Inline};
    InlineOnly.Inline = Options.Inline;
    ConfigEvaluator Evaluator(CSP, Options.Engine);
    for (const WeightSource *W : Sources) {
      ConfigEvaluation E = Evaluator.evaluate(InlineOnly, *W);
      InlineSourceResult IR;
      IR.Source = W->Origin;
      IR.Sites = std::move(E.Sites);
      IR.Verified = E.Verified;
      IR.VerifyDetail = std::move(E.VerifyDetail);
      IR.CostReduction =
          R.IdentityCost > 0
              ? (R.IdentityCost - E.EvalCost.cost()) / R.IdentityCost
              : 0.0;
      IR.CallsRemoved = BaseCost.Calls - E.EvalCost.Calls;
      R.Inline.push_back(std::move(IR));
    }
    R.InlineJaccard = jaccard(
        std::set<uint32_t>(R.Inline[0].Sites.begin(), R.Inline[0].Sites.end()),
        std::set<uint32_t>(R.Inline[1].Sites.begin(),
                           R.Inline[1].Sites.end()));
  }

  R.Ok = true;
  return R;
}

} // namespace

ConfigEvaluator::ConfigEvaluator(const CompiledSuiteProgram &CSP,
                                 InterpEngine Engine)
    : CSP(CSP) {
  RunOpts.Engine = Engine;
}

ConfigEvaluation ConfigEvaluator::evaluate(const TuneConfig &Config,
                                           const WeightSource &W) {
  ConfigEvaluation E;
  CompiledSuiteProgram Fresh = compileProgramOnly(*CSP.Spec);
  if (!Fresh.Ok) {
    E.Verified = false;
    E.VerifyDetail = "recompile failed: " + Fresh.Error;
    return E;
  }
  const TranslationUnit &Unit = Fresh.unit();
  const PipelineResult PR =
      Pipeline(Config).run(*Fresh.Ctx, *Fresh.Cfgs, *Fresh.CG, W);
  for (const InlineDecision &D : PR.Inlined.Applied)
    E.Sites.push_back(D.CallSiteId);
  ProgramBlockOrder Order;
  if (PR.HasLayout)
    Order = PR.Layout.blockOrder();

  // applySite declines before it mutates anything, so the applied-site
  // list (ids and order) determines the program.
  auto Runs = std::find_if(Shared.begin(), Shared.end(), [&](const RunSet &S) {
    return S.Sites == E.Sites && S.Order == Order;
  });
  if (Runs == Shared.end()) {
    RunSet S{E.Sites, std::move(Order), {}};
    InterpOptions O = RunOpts;
    O.Layout = PR.HasLayout ? &S.Order : nullptr;
    for (const ProgramInput &In : CSP.Spec->Inputs)
      S.Runs.push_back(runProgram(Unit, *Fresh.Cfgs, In, O));
    Runs = Shared.insert(Shared.end(), std::move(S));
  }
  for (size_t I = 0; I < Runs->Runs.size() && E.Verified; ++I) {
    const InlineVerifyResult V =
        compareInlinedRun(CSP.profilingRun(I), Runs->Runs[I], PR.Inlined);
    E.Verified = V.Match;
    if (!V.Match)
      E.VerifyDetail = CSP.Spec->Inputs[I].Name + ": " + V.Detail;
  }
  const RunResult &Eval = Runs->Runs[CSP.Profiles.size() - 1];
  E.EvalCost = Eval.LayoutCost;
  E.EvalFuncOrderCost = functionOrderCost(
      Unit, *Fresh.CG, weightsFromProfile(Unit, Eval.TheProfile, "eval"),
      PR.HasFuncOrder ? PR.FuncOrder : identityFunctionOrder(Unit));
  return E;
}

OptSuiteReport sest::opt::computeOptReport(
    const std::vector<CompiledSuiteProgram> &Programs,
    const OptReportOptions &Options) {
  obs::ScopedPhase Phase("opt.report");

  std::vector<const CompiledSuiteProgram *> Scored;
  for (const CompiledSuiteProgram &P : Programs)
    if (P.Spec)
      Scored.push_back(&P);

  OptSuiteReport Report;
  Report.Programs.resize(Scored.size());
  obs::parallelFor(Options.Jobs, Scored.size(), [&](size_t I) {
    Report.Programs[I] = scoreProgram(*Scored[I], Options);
  });

  // Suite aggregation.
  size_t JaccardCount = 0;
  size_t FuncOrderCount = 0;
  for (const OptProgramReport &P : Report.Programs) {
    if (!P.Ok)
      continue;
    for (const LayoutSourceResult &L : P.Layout) {
      const double Delta = P.IdentityCost - L.Cost;
      if (L.Source == "static")
        Report.StaticTotalReduction += Delta;
      else if (L.Source == "profile")
        Report.ProfileTotalReduction += Delta;
      else
        Report.OracleTotalReduction += Delta;
    }
    if (!P.VmCrossCheckOk)
      Report.AllCrossChecksOk = false;
    for (const InlineSourceResult &I : P.Inline)
      if (!I.Verified)
        Report.AllInlineVerified = false;
    if (!P.Inline.empty()) {
      Report.MeanInlineJaccard += P.InlineJaccard;
      ++JaccardCount;
    }
    for (const FuncOrderSourceResult &F : P.FuncOrder) {
      const double Delta = P.FuncOrderIdentityCost - F.Cost;
      if (F.Source == "static")
        Report.StaticFuncOrderReduction += Delta;
      else if (F.Source == "profile")
        Report.ProfileFuncOrderReduction += Delta;
    }
    if (!P.FuncOrder.empty()) {
      Report.MeanFuncOrderOverlap += P.FuncOrderOverlap;
      ++FuncOrderCount;
    }
  }
  if (JaccardCount)
    Report.MeanInlineJaccard /= static_cast<double>(JaccardCount);
  if (FuncOrderCount)
    Report.MeanFuncOrderOverlap /= static_cast<double>(FuncOrderCount);
  if (Report.ProfileFuncOrderReduction > 0)
    Report.FuncOrderRecovery = Report.StaticFuncOrderReduction /
                               Report.ProfileFuncOrderReduction;
  else
    Report.FuncOrderRecovery = 1.0;
  if (Report.ProfileTotalReduction > 0)
    Report.StaticRecoveryRatio =
        Report.StaticTotalReduction / Report.ProfileTotalReduction;
  else
    Report.StaticRecoveryRatio = 1.0;
  Report.MeetsRecoveryFloor =
      Report.StaticRecoveryRatio >= Options.StaticRecoveryFloor;

  obs::counterAdd("opt.report.programs", Report.Programs.size());
  return Report;
}

std::string sest::opt::optReportJson(const OptSuiteReport &Report,
                                     const OptReportOptions &Options) {
  const bool DoLayout = Options.Passes != OptPassSet::Inline;
  const bool DoInline = Options.Passes != OptPassSet::Layout;

  JsonWriter W;
  W.beginObject();
  W.member("schema", "sest-opt-report/1");
  W.member("passes", optPassSetName(Options.Passes));
  W.member("engine", interpEngineName(Options.Engine));
  W.member("native_timing", Options.MeasureNative);
  W.key("cost_weights").beginObject();
  W.member("fall_through", LayoutCostCounters::CostFallThrough);
  W.member("taken", LayoutCostCounters::CostTaken);
  W.member("call", LayoutCostCounters::CostCall);
  W.member("return", LayoutCostCounters::CostReturn);
  W.endObject();

  W.key("programs").beginArray();
  for (const OptProgramReport &P : Report.Programs) {
    W.beginObject();
    W.member("name", P.Name);
    W.member("program_hash", P.ProgramHash);
    W.member("ok", P.Ok);
    if (!P.Ok) {
      W.member("error", P.Error);
      W.endObject();
      continue;
    }
    W.member("eval_input", P.EvalInput);
    W.member("identity_cost", P.IdentityCost);
    if (DoLayout) {
      W.key("layout").beginObject();
      W.key("sources").beginArray();
      for (const LayoutSourceResult &L : P.Layout) {
        W.beginObject();
        W.member("source", L.Source);
        W.member("cost", L.Cost);
        W.member("reduction", L.Reduction);
        W.member("reordered_functions", L.ReorderedFunctions);
        W.member("outlined_blocks", L.OutlinedBlocks);
        W.endObject();
      }
      W.endArray();
      W.member("static_vs_profile_pair_overlap", P.LayoutPairOverlap);
      W.member("vm_crosscheck_ok", P.VmCrossCheckOk);
      W.endObject();
      W.key("func_order").beginObject();
      W.member("identity_cost", P.FuncOrderIdentityCost);
      W.key("sources").beginArray();
      for (const FuncOrderSourceResult &F : P.FuncOrder) {
        W.beginObject();
        W.member("source", F.Source);
        W.member("cost", F.Cost);
        W.member("reduction", F.Reduction);
        W.member("chains", F.NumChains);
        W.member("reordered", F.Reordered);
        W.endObject();
      }
      W.endArray();
      W.member("static_vs_profile_adjacency", P.FuncOrderOverlap);
      W.endObject();
      W.key("hints").beginObject();
      W.member("static_never_taken", P.StaticNeverTaken);
      W.member("profile_never_taken", P.ProfileNeverTaken);
      W.member("agreement", P.HintAgreement);
      W.endObject();
      if (Options.MeasureNative) {
        // The wall/compile ms fields are the report's only
        // non-deterministic values (see OptReportOptions).
        W.key("native").beginObject();
        W.member("available", P.Native.Available);
        if (!P.Native.Available) {
          W.member("detail", P.Native.Detail);
        } else {
          W.member("identity_wall_ms", P.Native.IdentityWallMs);
          W.member("layout_wall_ms", P.Native.LayoutWallMs);
          W.member("identity_compile_ms", P.Native.IdentityCompileMs);
          W.member("layout_compile_ms", P.Native.LayoutCompileMs);
          W.member("profiles_match", P.Native.ProfilesMatch);
          W.member("layout_cost_match", P.Native.LayoutCostMatch);
        }
        W.endObject();
      }
    }
    if (DoInline) {
      W.key("inline").beginObject();
      W.key("sources").beginArray();
      for (const InlineSourceResult &I : P.Inline) {
        W.beginObject();
        W.member("source", I.Source);
        W.key("sites").beginArray();
        for (uint32_t Id : I.Sites)
          W.value(Id);
        W.endArray();
        W.member("verified", I.Verified);
        if (!I.Verified)
          W.member("verify_detail", I.VerifyDetail);
        W.member("cost_reduction", I.CostReduction);
        W.member("calls_removed", I.CallsRemoved);
        W.endObject();
      }
      W.endArray();
      W.member("static_vs_profile_jaccard", P.InlineJaccard);
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();

  W.key("suite").beginObject();
  uint64_t ScoredCount = 0;
  for (const OptProgramReport &P : Report.Programs)
    if (P.Ok)
      ++ScoredCount;
  W.member("programs_scored", ScoredCount);
  if (DoLayout) {
    W.key("layout").beginObject();
    W.member("static_total_reduction", Report.StaticTotalReduction);
    W.member("profile_total_reduction", Report.ProfileTotalReduction);
    W.member("oracle_total_reduction", Report.OracleTotalReduction);
    W.member("static_recovery_ratio", Report.StaticRecoveryRatio);
    W.member("recovery_floor", Options.StaticRecoveryFloor);
    W.member("meets_floor", Report.MeetsRecoveryFloor);
    W.member("all_crosschecks_ok", Report.AllCrossChecksOk);
    W.endObject();
    W.key("func_order").beginObject();
    W.member("static_reduction", Report.StaticFuncOrderReduction);
    W.member("profile_reduction", Report.ProfileFuncOrderReduction);
    W.member("static_recovery", Report.FuncOrderRecovery);
    W.member("mean_adjacency", Report.MeanFuncOrderOverlap);
    W.endObject();
  }
  if (DoInline) {
    W.key("inline").beginObject();
    W.member("mean_jaccard", Report.MeanInlineJaccard);
    W.member("all_verified", Report.AllInlineVerified);
    W.endObject();
  }
  W.endObject();

  W.endObject();
  return W.take();
}
