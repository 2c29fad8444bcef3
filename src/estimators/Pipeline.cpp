//===- estimators/Pipeline.cpp - End-to-end estimation ---------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "estimators/Pipeline.h"

#include "obs/Parallel.h"
#include "obs/Telemetry.h"

using namespace sest;

namespace {

/// The one estimator-name table. A kind's first row is its printed name.
template <typename Kind> struct NameRow {
  Kind K;
  const char *Name;
};
constexpr NameRow<IntraEstimatorKind> IntraNames[] = {
    {IntraEstimatorKind::Loop, "loop"},
    {IntraEstimatorKind::Smart, "smart"},
    {IntraEstimatorKind::Markov, "markov"},
};
constexpr NameRow<InterEstimatorKind> InterNames[] = {
    {InterEstimatorKind::CallSite, "call-site"},
    {InterEstimatorKind::CallSite, "call_site"},
    {InterEstimatorKind::Direct, "direct"},
    {InterEstimatorKind::AllRec, "all_rec"},
    {InterEstimatorKind::AllRec2, "all_rec2"},
    {InterEstimatorKind::Markov, "markov"},
};

template <typename Kind, size_t N>
const char *nameOf(const NameRow<Kind> (&Rows)[N], Kind K) {
  for (const NameRow<Kind> &R : Rows)
    if (R.K == K)
      return R.Name;
  return "?";
}

template <typename Kind, size_t N>
bool parseName(const NameRow<Kind> (&Rows)[N], std::string_view Name,
               Kind &K) {
  for (const NameRow<Kind> &R : Rows)
    if (Name == R.Name) {
      K = R.K;
      return true;
    }
  return false;
}

} // namespace

const char *sest::intraEstimatorName(IntraEstimatorKind K) {
  return nameOf(IntraNames, K);
}

const char *sest::interEstimatorName(InterEstimatorKind K) {
  return nameOf(InterNames, K);
}

bool sest::parseIntraEstimator(std::string_view Name, IntraEstimatorKind &K) {
  return parseName(IntraNames, Name, K);
}

bool sest::parseInterEstimator(std::string_view Name, InterEstimatorKind &K) {
  return parseName(InterNames, Name, K);
}

IntraEstimates sest::computeIntraEstimates(
    const TranslationUnit &Unit, const CfgModule &Cfgs,
    const EstimatorOptions &Options,
    const std::vector<FunctionBranchPredictions> *CachedPredictions) {
  obs::ScopedPhase Phase("estimate.intra");
  IntraEstimates Out;
  Out.Blocks.resize(Unit.Functions.size());
  Out.Predictions.resize(Unit.Functions.size());

  BranchPredictorConfig BC = Options.Branch;
  BC.LoopIterations = Options.LoopIterations;
  BranchPredictor Predictor(BC);

  // A cached prediction table is only usable when it covers every
  // function — a partial table would silently mix configurations.
  if (CachedPredictions &&
      CachedPredictions->size() != Unit.Functions.size())
    CachedPredictions = nullptr;

  const auto &All = Cfgs.all();
  // One function's estimate: predict its branches once (or reuse the
  // caller's cached tables), then run the configured intra estimator
  // against the predictions.
  auto EstimateOne = [&](size_t I) {
    const auto &[F, G] = All[I];
    obs::ScopedPhase FnPhase("estimate.intra.function", F->name());
    size_t Fid = F->functionId();
    Out.Predictions[Fid] = CachedPredictions
                               ? (*CachedPredictions)[Fid]
                               : Predictor.predictFunction(*G);
    switch (Options.Intra) {
    case IntraEstimatorKind::Loop:
    case IntraEstimatorKind::Smart: {
      AstEstimatorConfig C;
      C.Kind = Options.Intra;
      C.LoopIterations = Options.LoopIterations;
      C.Branch = BC;
      Out.Blocks[Fid] = estimateBlockFrequencies(*G, C);
      break;
    }
    case IntraEstimatorKind::Markov: {
      MarkovIntraConfig C = Options.MarkovIntra_;
      C.Branch = BC;
      Out.Blocks[Fid] =
          markovBlockFrequencies(*G, C, &Out.Predictions[Fid])
              .BlockFrequencies;
      break;
    }
    }
  };

  // Functions are independent; the estimate is identical for every Jobs.
  obs::parallelFor(Options.Jobs, All.size(), EstimateOne);
  return Out;
}

ProgramEstimate sest::estimateProgram(
    const TranslationUnit &Unit, const CfgModule &Cfgs, const CallGraph &CG,
    const EstimatorOptions &Options,
    const std::vector<FunctionBranchPredictions> *CachedPredictions) {
  obs::ScopedPhase Phase("estimate");
  ProgramEstimate Out;
  IntraEstimates Intra =
      computeIntraEstimates(Unit, Cfgs, Options, CachedPredictions);
  {
    obs::ScopedPhase InterPhase("estimate.inter",
                                interEstimatorName(Options.Inter));
    Out.FunctionEstimates = estimateFunctionFrequencies(
        Options.Inter, Unit, CG, Intra, Options.Inter_);
  }
  {
    obs::ScopedPhase SitesPhase("estimate.callsites");
    Out.CallSiteEstimates = estimateCallSiteFrequencies(
        Unit, CG, Intra, Out.FunctionEstimates);
  }
  Out.BlockEstimates = std::move(Intra.Blocks);
  Out.Predictions = std::move(Intra.Predictions);
  return Out;
}

std::vector<std::vector<double>>
sest::globalBlockEstimates(const ProgramEstimate &E) {
  std::vector<std::vector<double>> Out = E.BlockEstimates;
  for (size_t F = 0; F < Out.size(); ++F) {
    double Scale =
        F < E.FunctionEstimates.size() ? E.FunctionEstimates[F] : 0.0;
    for (double &B : Out[F])
      B *= Scale;
  }
  return Out;
}

std::vector<std::vector<std::vector<double>>>
sest::globalArcEstimates(const TranslationUnit &Unit, const CfgModule &Cfgs,
                         const ProgramEstimate &E,
                         const EstimatorOptions &Options) {
  std::vector<std::vector<std::vector<double>>> Out(
      Unit.Functions.size());
  BranchPredictorConfig BC = Options.Branch;
  BC.LoopIterations = Options.LoopIterations;
  BranchPredictor Predictor(BC);
  // Estimates from the static pipeline carry their predictions; only
  // profile-derived estimates need a fresh prediction pass.
  bool HavePred = E.Predictions.size() == Unit.Functions.size();
  for (const auto &[F, G] : Cfgs.all()) {
    size_t Fid = F->functionId();
    FunctionBranchPredictions Pred =
        HavePred ? E.Predictions[Fid] : Predictor.predictFunction(*G);
    std::vector<std::vector<double>> Probs =
        transitionProbabilities(*G, Pred);
    double Scale = E.FunctionEstimates[Fid];
    auto &Rows = Out[Fid];
    Rows.resize(G->size());
    for (const auto &B : G->blocks()) {
      double BlockFreq = E.BlockEstimates[Fid][B->id()] * Scale;
      auto &Arcs = Rows[B->id()];
      Arcs.resize(B->successors().size());
      for (size_t S = 0; S < Arcs.size(); ++S)
        Arcs[S] = BlockFreq * Probs[B->id()][S];
    }
  }
  return Out;
}

ProgramEstimate sest::estimateFromProfile(const Profile &P,
                                          const CallGraph &CG) {
  ProgramEstimate Out;
  Out.BlockEstimates.resize(P.Functions.size());
  Out.FunctionEstimates.assign(P.Functions.size(), 0.0);
  for (size_t F = 0; F < P.Functions.size(); ++F) {
    const FunctionProfile &FP = P.Functions[F];
    Out.FunctionEstimates[F] = FP.EntryCount;
    Out.BlockEstimates[F] = FP.BlockCounts;
    if (FP.EntryCount > 0)
      for (double &B : Out.BlockEstimates[F])
        B /= FP.EntryCount; // normalize per entry, like static estimates
  }
  Out.CallSiteEstimates = P.CallSiteCounts;
  for (const CallSiteInfo *S : CG.indirectSites())
    if (S->CallSiteId < Out.CallSiteEstimates.size())
      Out.CallSiteEstimates[S->CallSiteId] = -1.0;
  return Out;
}
