//===- estimators/InterEstimators.h - Inter-procedural estimates -*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Inter-procedural frequency estimation (paper §4.3 and §5.2): given
/// per-function basic-block estimates (normalized to one entry), combine
/// them with the call graph to estimate how often each function is
/// invoked, and from that, how often each call site executes.
///
/// The simple predictors of §4.3:
///  - *call_site*: a function's count is the sum of the (local) block
///    counts of its call sites;
///  - *direct*: call_site, with directly-recursive functions multiplied
///    by 5;
///  - *all_rec*: every function in a recursive SCC multiplied by 5;
///  - *all_rec2*: all_rec's counts rescale the block counts, then the
///    algorithm is reapplied.
///
/// The Markov model of §5.2: functions are states, arcs carry the local
/// frequency of their call sites (arcs between the same pair merged),
/// main has entry frequency 1, and the system f = e + Wᵀf is solved.
/// Function pointers go through a synthetic *pointer node* whose outgoing
/// arcs are weighted by static address-of counts (§5.2.1). Recursion can
/// make the system "numerically ill-formed" (§5.2.2); the repair ladder
/// is exactly the paper's: direct self-arcs > 1 reset to 0.8, then
/// per-SCC subproblems with an artificial main (inflow m/n per entry), a
/// solution ceiling, and iterative scaling of SCC arc probabilities.
///
//===----------------------------------------------------------------------===//

#ifndef ESTIMATORS_INTERESTIMATORS_H
#define ESTIMATORS_INTERESTIMATORS_H

#include "callgraph/CallGraph.h"
#include "cfg/Cfg.h"
#include "estimators/BranchPrediction.h"
#include "lang/Ast.h"
#include "support/SparseMarkov.h"

#include <vector>

namespace sest {

/// Per-program intra-procedural block estimates, normalized so each
/// function's entry executes once. Indexed [function id][block id];
/// builtins/undefined functions have empty rows.
struct IntraEstimates {
  std::vector<std::vector<double>> Blocks;
  /// CFG-level branch predictions computed alongside the block
  /// estimates (indexed by function id; default-constructed entries for
  /// builtins). Prediction runs once per function per configuration;
  /// later passes (arc estimates, accuracy attribution) reuse these
  /// instead of re-predicting.
  std::vector<FunctionBranchPredictions> Predictions;

  /// The local (per-entry) frequency of the block containing \p Site.
  double localSiteFrequency(const CallSiteInfo &Site) const {
    const auto &Row = Blocks[Site.Caller->functionId()];
    if (Site.Block->id() >= Row.size())
      return 0.0;
    return Row[Site.Block->id()];
  }
};

/// The simple inter-procedural predictors of §4.3.
enum class InterEstimatorKind {
  CallSite,
  Direct,
  AllRec,
  AllRec2,
  Markov,
};

/// Tuning for the inter-procedural estimators.
struct InterEstimatorConfig {
  /// Multiplier applied to recursive functions by direct/all_rec (the
  /// paper's 5).
  double RecursionFactor = 5.0;
  /// Self-arc probability used when a recursive arc exceeds 1 (§5.2.2).
  double RecursiveArcProbability = 0.8;
  /// Ceiling on SCC subproblem solutions ("after some experimentation,
  /// we chose a ceiling of 5").
  double SccCeiling = 5.0;
  /// Factor for the iterative scale-down of SCC arc probabilities.
  double SccScale = 0.9;
  unsigned MaxSccRepairIterations = 200;
  /// Which linear-solver tier runs the call-graph flow equation (whole
  /// graph and §5.2.2 subproblems). Sparse condenses into SCCs and
  /// solves near-linearly; Dense is the original whole-matrix Gaussian
  /// elimination, kept as the differential oracle. The repair ladder is
  /// identical on both tiers.
  MarkovSolverKind Solver = MarkovSolverKind::Sparse;
};

/// Estimates the invocation frequency of every function (indexed by
/// function id; main = 1 for Markov, call-site-sum otherwise). Builtins
/// participate as callees of direct arcs but have no outgoing arcs.
std::vector<double> estimateFunctionFrequencies(
    InterEstimatorKind Kind, const TranslationUnit &Unit,
    const CallGraph &CG, const IntraEstimates &Intra,
    const InterEstimatorConfig &Config = {});

/// Global call-site frequency estimates: local site frequency times the
/// caller's estimated invocation count (§5.3). Returns one entry per
/// call-site id; indirect sites get -1 ("it is difficult or impossible
/// to inline calls through pointers, so we omit them").
std::vector<double>
estimateCallSiteFrequencies(const TranslationUnit &Unit, const CallGraph &CG,
                            const IntraEstimates &Intra,
                            const std::vector<double> &FunctionFreqs);

/// One estimated call-graph arc (direct arcs only; sites between the
/// same pair merged, as in the Markov model).
struct CallArcEstimate {
  const FunctionDecl *Caller = nullptr;
  const FunctionDecl *Callee = nullptr;
  /// Estimated global traversal frequency of the arc.
  double Frequency = 0;
  /// Number of call sites merged into this arc.
  unsigned NumSites = 0;
};

/// Whole-program call-graph arc estimates (the abstract's "arc ...
/// frequency estimates for the entire program" at the call-graph level):
/// per (caller, callee) pair, the summed global frequencies of its
/// direct call sites. Sorted by descending frequency.
std::vector<CallArcEstimate>
estimateCallArcFrequencies(const TranslationUnit &Unit, const CallGraph &CG,
                           const IntraEstimates &Intra,
                           const std::vector<double> &FunctionFreqs);

} // namespace sest

#endif // ESTIMATORS_INTERESTIMATORS_H
