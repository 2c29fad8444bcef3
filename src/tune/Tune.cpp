//===- tune/Tune.cpp - Estimator-guided autotuner -------------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "tune/Tune.h"

#include "obs/EventLog.h"
#include "obs/Parallel.h"
#include "obs/Telemetry.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Prng.h"

#include <algorithm>
#include <array>
#include <map>

using namespace sest;
using namespace sest::tune;
using opt::FunctionOrder;
using opt::PassKind;
using opt::PipelineResult;
using opt::TuneConfig;
using opt::WeightSource;
using opt::weightsFromEstimate;
using opt::weightsFromProfile;

const char *sest::tune::tuneOracleName(TuneOracle O) {
  switch (O) {
  case TuneOracle::Static:
    return "static";
  case TuneOracle::Profile:
    return "profile";
  case TuneOracle::Measured:
    return "measured";
  }
  return "static";
}

bool sest::tune::parseTuneOracle(std::string_view Name, TuneOracle &O) {
  if (Name == "static")
    O = TuneOracle::Static;
  else if (Name == "profile")
    O = TuneOracle::Profile;
  else if (Name == "measured")
    O = TuneOracle::Measured;
  else
    return false;
  return true;
}

namespace {

// The fixed search grid. Dimensions, in coordinate-descent scan order:
//   0  inline TopK          {0, 2, 4, 8, 16}
//   1  inline MaxCalleeBlocks {8, 24, 48}
//   2  layout ColdFraction  {0.0, 0.01, 0.05, 0.2}
//   3  pass order           {inline-first, layout-first}
//   4  function ordering    {off, on}
// 5 * 3 * 4 * 2 * 2 = 240 grid points; canonically fewer distinct
// configs (TopK == 0 makes dimensions 1 and 3 dead, which the config
// content hash collapses — the memo cache makes revisits free).
const unsigned TopKValues[] = {0, 2, 4, 8, 16};
const size_t CalleeBlockValues[] = {8, 24, 48};
const double ColdFractionValues[] = {0.0, 0.01, 0.05, 0.2};
constexpr uint32_t DimSizes[5] = {5, 3, 4, 2, 2};

using GridPoint = std::array<uint8_t, 5>;

/// The TuneConfig defaults as a grid point (TopK 8, MaxCalleeBlocks 24,
/// ColdFraction 0.01, inline-first, function ordering off) — always the
/// search's first probe.
constexpr GridPoint DefaultPoint = {3, 1, 1, 0, 0};

TuneConfig configFor(const GridPoint &P) {
  TuneConfig C;
  C.Inline.TopK = TopKValues[P[0]];
  C.Inline.MaxCalleeBlocks = CalleeBlockValues[P[1]];
  C.Layout.ColdFraction = ColdFractionValues[P[2]];
  C.Order.clear();
  if (P[3] == 0) {
    C.Order.push_back(PassKind::Inline);
    C.Order.push_back(PassKind::Layout);
  } else {
    C.Order.push_back(PassKind::Layout);
    C.Order.push_back(PassKind::Inline);
  }
  if (P[4])
    C.Order.push_back(PassKind::FuncOrder);
  return C;
}

/// Per-dimension agreement of two winning points; dimensions dead under
/// both winners (the inline knobs when neither inlines) agree by
/// definition.
double pointOverlap(const GridPoint &A, const GridPoint &B) {
  const bool BothNoInline = TopKValues[A[0]] == 0 && TopKValues[B[0]] == 0;
  unsigned Agree = 0;
  for (int D = 0; D < 5; ++D) {
    const bool DeadDim = BothNoInline && (D == 1 || D == 3);
    if (DeadDim || A[D] == B[D])
      ++Agree;
  }
  return static_cast<double>(Agree) / 5.0;
}

/// One oracle's search over one program: the memo cache, trial log, and
/// incumbent.
struct Search {
  const CompiledSuiteProgram &CSP;
  const TuneOptions &Options;
  TuneOracle Oracle;
  const WeightSource &W; ///< Oracle weights on the pristine CFGs.
  InterpOptions RunOpts;

  std::map<uint64_t, double> Memo = {}; ///< Config hash -> objective.
  uint64_t Evaluations = 0;
  uint64_t CacheHits = 0;
  uint32_t Index = 0;
  std::vector<TuneTrial> Trajectory = {};
  GridPoint BestPoint = DefaultPoint;
  double BestObjective = 0.0;
  bool HaveBest = false;
  std::string Error = {};

  bool budgetLeft() const { return Evaluations < Options.Budget; }

  /// Scores one configuration: fresh compile, pipeline run, oracle cost.
  double evaluate(const TuneConfig &C) {
    CompiledSuiteProgram Fresh = compileProgramOnly(*CSP.Spec);
    if (!Fresh.Ok) {
      Error = "recompile failed: " + Fresh.Error;
      return 0.0;
    }
    const TranslationUnit &Unit = Fresh.unit();
    const opt::Pipeline Pipe(C);
    PipelineResult PR =
        Pipe.run(*Fresh.Ctx, *Fresh.Cfgs, *Fresh.CG, W);
    const FunctionOrder FO = PR.HasFuncOrder
                                 ? PR.FuncOrder
                                 : opt::identityFunctionOrder(Unit);
    const double OrderCost =
        opt::functionOrderCost(Unit, *Fresh.CG, PR.W, FO);
    if (Oracle == TuneOracle::Measured) {
      InterpOptions RO = RunOpts;
      ProgramBlockOrder Order;
      if (PR.HasLayout) {
        Order = PR.Layout.blockOrder();
        RO.Layout = &Order;
      }
      const RunResult RR = runProgram(Unit, *Fresh.Cfgs,
                                      CSP.Spec->Inputs[0], RO);
      if (!RR.Ok) {
        Error = "measured run failed: " + RR.Error;
        return 0.0;
      }
      return RR.LayoutCost.cost() + OrderCost;
    }
    return opt::predictedLayoutCost(Unit, *Fresh.Cfgs, *Fresh.CG, PR.W,
                                    PR.HasLayout ? &PR.Layout : nullptr) +
           OrderCost;
  }

  /// Visits one grid point under \p Phase. Returns false when the budget
  /// is exhausted (the point was not scored) or an evaluation failed.
  bool visit(const GridPoint &P, const char *Phase) {
    const TuneConfig C = configFor(P);
    const uint64_t Hash = C.contentHash();
    const auto It = Memo.find(Hash);
    double Obj;
    bool Hit = It != Memo.end();
    if (Hit) {
      Obj = It->second;
      ++CacheHits;
    } else {
      if (!budgetLeft())
        return false;
      Obj = evaluate(C);
      if (!Error.empty())
        return false;
      ++Evaluations;
      Memo.emplace(Hash, Obj);
    }
    const bool Improved = !HaveBest || Obj < BestObjective;
    if (Improved) {
      HaveBest = true;
      BestObjective = Obj;
      BestPoint = P;
    }
    TuneTrial T;
    T.Index = Index++;
    T.Phase = Phase;
    T.ConfigHash = hashHex(Hash);
    T.Objective = Obj;
    T.CacheHit = Hit;
    T.Improved = Improved;
    Trajectory.push_back(std::move(T));
    obs::counterAdd("tune.trials");
    if (!Hit)
      obs::counterAdd("tune.evaluations");
    else
      obs::counterAdd("tune.cache_hits");
    if (obs::eventLogActive())
      obs::logEvent("tune.trial", obs::provProgram(CSP.Spec->Name),
                    {obs::attr("program", CSP.Spec->Name),
                     obs::attr("oracle", tuneOracleName(Oracle)),
                     obs::attr("phase", Phase),
                     obs::attr("config", hashHex(Hash)),
                     obs::attr("objective", Obj),
                     obs::attr("cache_hit", Hit),
                     obs::attr("improved", Improved)});
    return true;
  }

  /// Runs the whole search. Returns false (with Error set) on an
  /// evaluation failure.
  bool run(bool &Exhaustive) {
    Exhaustive = Options.Budget >= tuneSearchSpaceSize();
    if (Exhaustive) {
      GridPoint P = {0, 0, 0, 0, 0};
      for (P[0] = 0; P[0] < DimSizes[0]; ++P[0])
        for (P[1] = 0; P[1] < DimSizes[1]; ++P[1])
          for (P[2] = 0; P[2] < DimSizes[2]; ++P[2])
            for (P[3] = 0; P[3] < DimSizes[3]; ++P[3])
              for (P[4] = 0; P[4] < DimSizes[4]; ++P[4])
                if (!visit(P, "exhaustive") && !Error.empty())
                  return false;
      return Error.empty();
    }

    // Seed phase: the default config first, then random points until
    // half the budget is spent. The stream is private to this (seed,
    // program, oracle) triple, so adding a program or an oracle never
    // shifts any other search.
    const uint64_t StreamSeed = HashBuilder("tune-search")
                                    .addU64(Options.Seed)
                                    .addU64(contentHash64(CSP.Spec->Source))
                                    .add(tuneOracleName(Oracle))
                                    .digest();
    Prng Rng(StreamSeed);
    const uint64_t SeedBudget = std::max<uint64_t>(1, Options.Budget / 2);
    if (!visit(DefaultPoint, "seed"))
      return Error.empty();
    for (uint64_t Tries = 0; Evaluations < SeedBudget && Tries < 8 * SeedBudget;
         ++Tries) {
      GridPoint P;
      for (int D = 0; D < 5; ++D)
        P[D] = static_cast<uint8_t>(Rng.nextBelow(DimSizes[D]));
      if (!visit(P, "seed"))
        return Error.empty();
    }

    // Greedy coordinate descent from the incumbent: scan each dimension
    // in order, move to the best value, repeat until a full sweep makes
    // no progress (or the budget runs out).
    bool Progress = true;
    while (Progress && budgetLeft()) {
      Progress = false;
      for (int D = 0; D < 5 && budgetLeft(); ++D) {
        const GridPoint Anchor = BestPoint;
        for (uint8_t V = 0; V < DimSizes[D]; ++V) {
          if (V == Anchor[D])
            continue;
          GridPoint P = Anchor;
          P[D] = V;
          if (!visit(P, "descent")) {
            if (!Error.empty())
              return false;
            break; // Budget exhausted mid-scan.
          }
          if (BestPoint != Anchor)
            Progress = true;
        }
      }
    }
    return true;
  }
};

/// Output / exit-code / profile identity of two runs of behaviorally
/// equivalent programs (the layout run's counts must match the identity
/// run's bit for bit).
bool sameBehavior(const RunResult &A, const RunResult &B,
                  std::string &Detail) {
  if (A.Output != B.Output) {
    Detail = "output differs";
    return false;
  }
  if (A.ExitCode != B.ExitCode) {
    Detail = "exit code differs";
    return false;
  }
  if (A.TheProfile.Functions.size() != B.TheProfile.Functions.size() ||
      A.TheProfile.CallSiteCounts != B.TheProfile.CallSiteCounts) {
    Detail = "profile differs";
    return false;
  }
  return true;
}

TuneProgramReport scoreProgram(const CompiledSuiteProgram &CSP,
                               const TuneOptions &Options) {
  obs::ScopedPhase Phase("tune.program", CSP.Spec->Name);

  TuneProgramReport R;
  R.Name = CSP.Spec->Name;
  R.ProgramHash = hashHex(contentHash64(CSP.Spec->Source));
  R.Error = baselineError(CSP);
  if (!R.Error.empty())
    return R;
  const size_t EvalIdx = CSP.Profiles.size() - 1;
  R.EvalInput = CSP.Spec->Inputs[EvalIdx].Name;
  const TranslationUnit &Unit = CSP.unit();

  InterpOptions RunOpts;
  RunOpts.Engine = Options.Engine;

  // The profiling runs are the identity baselines: the verification
  // references, and the eval-input identity cost.
  const WeightSource WEvalIdentity =
      weightsFromProfile(Unit, CSP.Profiles[EvalIdx], "eval");
  R.IdentityEvalCost =
      CSP.RunStats[EvalIdx].LayoutCost.cost() +
      opt::functionOrderCost(Unit, *CSP.CG, WEvalIdentity,
                             opt::identityFunctionOrder(Unit));

  // Oracle weights, all on the pristine CFGs (ids are stable across the
  // per-candidate fresh compiles, so they carry over).
  const EstimatorOptions &Est = Options.Est;
  const ProgramEstimate Estimate =
      estimateProgram(Unit, *CSP.Cfgs, *CSP.CG, Est);
  const WeightSource WStatic =
      weightsFromEstimate(Unit, *CSP.Cfgs, Estimate, Est);
  const WeightSource WProfile =
      weightsFromProfile(Unit, CSP.Profiles[0], "profile");

  GridPoint WinningPoints[2] = {DefaultPoint, DefaultPoint};
  bool HavePoint[2] = {false, false};
  double EvalCosts[2] = {0.0, 0.0};

  for (TuneOracle O : Options.Oracles) {
    TuneOracleResult OR;
    OR.Oracle = tuneOracleName(O);
    // The measured oracle steers the pipeline with the training profile
    // and scores by running; the others score analytically under their
    // own weights.
    const WeightSource &W =
        O == TuneOracle::Static ? WStatic : WProfile;

    Search S{CSP, Options, O, W, RunOpts};
    if (!S.run(OR.Exhaustive) || !S.HaveBest) {
      R.Error = S.Error.empty() ? "search produced no result" : S.Error;
      return R;
    }
    OR.Best = configFor(S.BestPoint);
    OR.BestConfigHash = hashHex(OR.Best.contentHash());
    OR.SearchObjective = S.BestObjective;
    OR.Evaluations = S.Evaluations;
    OR.CacheHits = S.CacheHits;
    OR.Trajectory = std::move(S.Trajectory);

    // Held-out evaluation of the winner: replay the pipeline, run every
    // input for differential verification, and measure on the
    // evaluation input.
    CompiledSuiteProgram Fresh = compileProgramOnly(*CSP.Spec);
    if (!Fresh.Ok) {
      R.Error = "recompile failed: " + Fresh.Error;
      return R;
    }
    const TranslationUnit &FUnit = Fresh.unit();
    const opt::Pipeline Pipe(OR.Best);
    PipelineResult PR =
        Pipe.run(*Fresh.Ctx, *Fresh.Cfgs, *Fresh.CG, W);
    ProgramBlockOrder Order;
    InterpOptions TunedOpts = RunOpts;
    if (PR.HasLayout) {
      Order = PR.Layout.blockOrder();
      TunedOpts.Layout = &Order;
    }
    for (size_t I = 0; I < CSP.Spec->Inputs.size(); ++I) {
      const RunResult RR = runProgram(FUnit, *Fresh.Cfgs,
                                      CSP.Spec->Inputs[I], TunedOpts);
      if (!RR.Ok) {
        OR.Verified = false;
        OR.VerifyDetail = CSP.Spec->Inputs[I].Name + ": " + RR.Error;
        break;
      }
      const RunResult Base = CSP.profilingRun(I);
      std::string Detail;
      if (PR.HasInline) {
        const opt::InlineVerifyResult V =
            opt::compareInlinedRun(Base, RR, PR.Inlined);
        if (!V.Match) {
          OR.Verified = false;
          OR.VerifyDetail = CSP.Spec->Inputs[I].Name + ": " + V.Detail;
          break;
        }
      } else if (!sameBehavior(Base, RR, Detail)) {
        OR.Verified = false;
        OR.VerifyDetail = CSP.Spec->Inputs[I].Name + ": " + Detail;
        break;
      }
      if (I == EvalIdx) {
        OR.EvalLayoutCost = RR.LayoutCost.cost();
        const WeightSource WEvalPost =
            weightsFromProfile(FUnit, RR.TheProfile, "eval");
        const FunctionOrder FO =
            PR.HasFuncOrder ? PR.FuncOrder
                            : opt::identityFunctionOrder(FUnit);
        OR.EvalFuncOrderCost =
            opt::functionOrderCost(FUnit, *Fresh.CG, WEvalPost, FO);
      }
    }
    OR.EvalCost = OR.EvalLayoutCost + OR.EvalFuncOrderCost;
    OR.EvalReduction =
        R.IdentityEvalCost > 0
            ? (R.IdentityEvalCost - OR.EvalCost) / R.IdentityEvalCost
            : 0.0;

    const int Slot = O == TuneOracle::Static   ? 0
                     : O == TuneOracle::Profile ? 1
                                                : -1;
    if (Slot >= 0) {
      WinningPoints[Slot] = S.BestPoint;
      HavePoint[Slot] = true;
      EvalCosts[Slot] = OR.EvalCost;
    }
    R.Oracles.push_back(std::move(OR));
  }

  if (HavePoint[0] && HavePoint[1]) {
    R.ConfigOverlap = pointOverlap(WinningPoints[0], WinningPoints[1]);
    R.Regret = R.IdentityEvalCost > 0
                   ? (EvalCosts[0] - EvalCosts[1]) / R.IdentityEvalCost
                   : 0.0;
  }
  R.Ok = true;
  return R;
}

} // namespace

uint32_t sest::tune::tuneSearchSpaceSize() {
  uint32_t N = 1;
  for (uint32_t S : DimSizes)
    N *= S;
  return N;
}

TuneSuiteReport sest::tune::computeTuneReport(
    const std::vector<CompiledSuiteProgram> &Programs,
    const TuneOptions &Options) {
  obs::ScopedPhase Phase("tune.report");

  std::vector<const CompiledSuiteProgram *> Scored;
  for (const CompiledSuiteProgram &P : Programs)
    if (P.Spec)
      Scored.push_back(&P);

  TuneSuiteReport Report;
  Report.Programs.resize(Scored.size());
  obs::parallelFor(Options.Jobs, Scored.size(), [&](size_t I) {
    Report.Programs[I] = scoreProgram(*Scored[I], Options);
  });

  // Suite aggregation over programs where both compared oracles ran.
  size_t ComparedCount = 0;
  Report.MeanConfigOverlap = 0.0;
  Report.MeanRegret = 0.0;
  for (const TuneProgramReport &P : Report.Programs) {
    if (!P.Ok)
      continue;
    const TuneOracleResult *Static = nullptr, *Profile = nullptr;
    for (const TuneOracleResult &O : P.Oracles) {
      if (!O.Verified)
        Report.AllVerified = false;
      if (O.Oracle == "static")
        Static = &O;
      else if (O.Oracle == "profile")
        Profile = &O;
    }
    if (!Static || !Profile)
      continue;
    Report.StaticSearchReduction += P.IdentityEvalCost - Static->EvalCost;
    Report.ProfileSearchReduction +=
        P.IdentityEvalCost - Profile->EvalCost;
    Report.MeanConfigOverlap += P.ConfigOverlap;
    Report.MeanRegret += P.Regret;
    ++ComparedCount;
  }
  if (ComparedCount) {
    Report.MeanConfigOverlap /= static_cast<double>(ComparedCount);
    Report.MeanRegret /= static_cast<double>(ComparedCount);
  } else {
    Report.MeanConfigOverlap = 1.0;
    Report.MeanRegret = 0.0;
  }
  if (Report.ProfileSearchReduction > 0)
    Report.StaticSearchRecovery =
        Report.StaticSearchReduction / Report.ProfileSearchReduction;
  else
    Report.StaticSearchRecovery = 1.0;
  Report.MeetsRecoveryFloor =
      Report.StaticSearchRecovery >= Options.StaticSearchRecoveryFloor;

  obs::counterAdd("tune.report.programs", Report.Programs.size());
  return Report;
}

std::string sest::tune::tuneReportJson(const TuneSuiteReport &Report,
                                       const TuneOptions &Options) {
  JsonWriter W;
  W.beginObject();
  W.member("schema", "sest-tune-report/1");
  W.key("oracles").beginArray();
  for (TuneOracle O : Options.Oracles)
    W.value(tuneOracleName(O));
  W.endArray();
  W.member("budget", Options.Budget);
  W.member("seed", Options.Seed);
  W.member("engine", interpEngineName(Options.Engine));
  W.key("search_space").beginObject();
  W.member("grid_points", tuneSearchSpaceSize());
  W.key("top_k").beginArray();
  for (unsigned V : TopKValues)
    W.value(V);
  W.endArray();
  W.key("max_callee_blocks").beginArray();
  for (size_t V : CalleeBlockValues)
    W.value(static_cast<uint64_t>(V));
  W.endArray();
  W.key("cold_fraction").beginArray();
  for (double V : ColdFractionValues)
    W.value(V);
  W.endArray();
  W.key("pass_order").beginArray();
  W.value("inline-first");
  W.value("layout-first");
  W.endArray();
  W.key("func_order").beginArray();
  W.value(false);
  W.value(true);
  W.endArray();
  W.endObject();

  W.key("programs").beginArray();
  for (const TuneProgramReport &P : Report.Programs) {
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
    W.member("identity_eval_cost", P.IdentityEvalCost);
    W.key("oracles").beginArray();
    for (const TuneOracleResult &O : P.Oracles) {
      W.beginObject();
      W.member("oracle", O.Oracle);
      W.key("best_config").rawValue(O.Best.toJson());
      W.member("best_config_hash", O.BestConfigHash);
      W.member("search_objective", O.SearchObjective);
      W.member("eval_cost", O.EvalCost);
      W.member("eval_layout_cost", O.EvalLayoutCost);
      W.member("eval_func_order_cost", O.EvalFuncOrderCost);
      W.member("eval_reduction", O.EvalReduction);
      W.member("evaluations", O.Evaluations);
      W.member("cache_hits", O.CacheHits);
      W.member("exhaustive", O.Exhaustive);
      W.member("verified", O.Verified);
      if (!O.Verified)
        W.member("verify_detail", O.VerifyDetail);
      W.key("trajectory").beginArray();
      for (const TuneTrial &T : O.Trajectory) {
        W.beginObject();
        W.member("trial", T.Index);
        W.member("phase", T.Phase);
        W.member("config", T.ConfigHash);
        W.member("objective", T.Objective);
        W.member("cache_hit", T.CacheHit);
        W.member("improved", T.Improved);
        W.endObject();
      }
      W.endArray();
      W.endObject();
    }
    W.endArray();
    W.key("static_vs_profile").beginObject();
    W.member("config_overlap", P.ConfigOverlap);
    W.member("regret", P.Regret);
    W.endObject();
    W.endObject();
  }
  W.endArray();

  W.key("suite").beginObject();
  uint64_t ScoredCount = 0;
  for (const TuneProgramReport &P : Report.Programs)
    if (P.Ok)
      ++ScoredCount;
  W.member("programs_scored", ScoredCount);
  W.member("static_search_reduction", Report.StaticSearchReduction);
  W.member("profile_search_reduction", Report.ProfileSearchReduction);
  W.member("static_search_recovery", Report.StaticSearchRecovery);
  W.member("recovery_floor", Options.StaticSearchRecoveryFloor);
  W.member("meets_floor", Report.MeetsRecoveryFloor);
  W.member("mean_config_overlap", Report.MeanConfigOverlap);
  W.member("mean_regret", Report.MeanRegret);
  W.member("all_verified", Report.AllVerified);
  W.endObject();

  W.endObject();
  return W.take();
}

std::string sest::tune::tuneSource(std::string_view Source,
                                   std::string_view Input,
                                   const TuneOptions &Options) {
  SuiteProgram SP;
  SP.Name = "request";
  SP.Source = std::string(Source);
  SP.Inputs.push_back({"train", std::string(Input), 1});
  SP.Inputs.push_back({"eval", std::string(Input), 2});

  InterpOptions RunOpts;
  RunOpts.Engine = Options.Engine;
  std::vector<CompiledSuiteProgram> Programs;
  Programs.push_back(compileAndProfileProgram(SP, RunOpts));
  return tuneReportJson(computeTuneReport(Programs, Options), Options);
}
