//===- estimators/Pipeline.h - End-to-end estimation ------------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public one-stop API: compile-time estimation of block, function
/// and call-site frequencies for a whole program, combining a chosen
/// intra-procedural estimator (loop / smart / Markov) with a chosen
/// inter-procedural estimator (call_site / direct / all_rec / all_rec2 /
/// Markov). This is the pipeline an optimizing compiler would run
/// ("analysis time similar to that of gcc's standard optimization
/// option", §2).
///
//===----------------------------------------------------------------------===//

#ifndef ESTIMATORS_PIPELINE_H
#define ESTIMATORS_PIPELINE_H

#include "callgraph/CallGraph.h"
#include "cfg/Cfg.h"
#include "estimators/AstEstimator.h"
#include "estimators/InterEstimators.h"
#include "estimators/MarkovIntra.h"
#include "profile/Profile.h"

#include <string_view>

namespace sest {

/// Estimator names, for reports and tables ("smart", "call-site", ...).
const char *intraEstimatorName(IntraEstimatorKind K);
const char *interEstimatorName(InterEstimatorKind K);
/// Parses a name the tools and the service accept into \p K; false when
/// unknown. Besides the printed names, `call_site` is `call-site`.
bool parseIntraEstimator(std::string_view Name, IntraEstimatorKind &K);
bool parseInterEstimator(std::string_view Name, InterEstimatorKind &K);

/// Full estimator configuration.
struct EstimatorOptions {
  IntraEstimatorKind Intra = IntraEstimatorKind::Smart;
  InterEstimatorKind Inter = InterEstimatorKind::Markov;
  /// Assumed loop iteration count (paper: 5).
  double LoopIterations = 5.0;
  /// Branch heuristics (probability, toggles, switch weighting).
  BranchPredictorConfig Branch;
  /// Inter-procedural knobs (recursion factor, SCC ceiling...).
  InterEstimatorConfig Inter_;
  /// Markov-intra repair knobs.
  MarkovIntraConfig MarkovIntra_;
  /// Worker threads across functions (obs::parallelFor: 0 = one per
  /// core, 1 = serial). Results are identical for every value.
  unsigned Jobs = 1;

  /// Keeps the shared loop count consistent across sub-configs.
  void setLoopIterations(double L) {
    LoopIterations = L;
    Branch.LoopIterations = L;
    MarkovIntra_.Branch.LoopIterations = L;
  }

  /// Selects the linear-solver tier for both Markov models (sparse is
  /// the default; dense is the differential oracle).
  void setSolver(MarkovSolverKind K) {
    MarkovIntra_.Solver = K;
    Inter_.Solver = K;
  }
};

/// A complete static estimate of one program.
struct ProgramEstimate {
  /// Per-function block frequencies normalized to one entry
  /// ([function id][block id]; empty rows for builtins).
  std::vector<std::vector<double>> BlockEstimates;
  /// Estimated invocation counts per function id.
  std::vector<double> FunctionEstimates;
  /// Estimated global call-site frequencies per call-site id; -1 for
  /// omitted (indirect) sites.
  std::vector<double> CallSiteEstimates;
  /// The CFG-level branch predictions the estimate was computed with
  /// (indexed by function id; empty when the estimate did not come from
  /// the static pipeline, e.g. estimateFromProfile). Passes that need
  /// predictions (arc estimates, accuracy attribution) reuse these so
  /// prediction runs once per function per configuration.
  std::vector<FunctionBranchPredictions> Predictions;
};

/// Runs the intra-procedural estimator over every defined function.
///
/// When \p CachedPredictions is non-null (one FunctionBranchPredictions
/// per function id, as produced by a previous run with the same source
/// and branch configuration) the branch-prediction pass is skipped and
/// the cached tables are used verbatim — the analysis service's
/// branch-table cache tier feeds this. Results are bit-identical to a
/// fresh prediction pass because prediction is a pure function of the
/// CFG and the branch configuration.
IntraEstimates
computeIntraEstimates(const TranslationUnit &Unit, const CfgModule &Cfgs,
                      const EstimatorOptions &Options,
                      const std::vector<FunctionBranchPredictions>
                          *CachedPredictions = nullptr);

/// Runs the full pipeline (intra → inter → call sites).
/// \p CachedPredictions as in computeIntraEstimates.
ProgramEstimate estimateProgram(const TranslationUnit &Unit,
                                const CfgModule &Cfgs, const CallGraph &CG,
                                const EstimatorOptions &Options,
                                const std::vector<FunctionBranchPredictions>
                                    *CachedPredictions = nullptr);

/// Converts a measured (or aggregated) profile into the same shape, so
/// profiles can be scored as estimators ("profiling with alternate
/// inputs"). Block counts are renormalized per entry; indirect call
/// sites in \p CG are marked omitted for like-for-like comparison.
ProgramEstimate estimateFromProfile(const Profile &P, const CallGraph &CG);

/// Whole-program ("global") block frequencies — the abstract's "arc and
/// basic block frequency estimates for the entire program": each
/// function's per-entry block estimates scaled by its estimated
/// invocation count. Indexed like BlockEstimates.
std::vector<std::vector<double>>
globalBlockEstimates(const ProgramEstimate &E);

/// Whole-program arc frequency estimates: the probability-weighted flow
/// of every (block, successor-slot), scaled by the function's estimated
/// invocation count. Probabilities come from the branch predictor in
/// \p Options. Indexed [function id][block id][slot].
std::vector<std::vector<std::vector<double>>>
globalArcEstimates(const TranslationUnit &Unit, const CfgModule &Cfgs,
                   const ProgramEstimate &E,
                   const EstimatorOptions &Options);

} // namespace sest

#endif // ESTIMATORS_PIPELINE_H
