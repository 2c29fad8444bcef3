//===- estimators/AstEstimator.h - AST frequency estimation ----*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's AST-based intra-procedural frequency estimators (§4.2):
///
///  - *loop*: locate loops, assume each iterates five times, treat every
///    branch direction as equally likely (50/50);
///  - *smart*: loop plus the branch-prediction heuristics, converting each
///    prediction into a probability (0.8 for the predicted arm).
///
/// Frequencies are normalized to a single entry of the function and are
/// computed by one top-down walk of the AST (Figure 3). Following the
/// paper, the AST model deliberately ignores break / continue / goto /
/// return: those explicit transfers are exactly what the Markov CFG model
/// (§5.1) adds.
///
/// Per the paper's convention (Figure 3: "the while loop is assumed to
/// execute five times, so items in its body execute four times"), a loop
/// whose statement executes F times has test frequency F·L and body
/// frequency F·(L-1).
///
//===----------------------------------------------------------------------===//

#ifndef ESTIMATORS_ASTESTIMATOR_H
#define ESTIMATORS_ASTESTIMATOR_H

#include "cfg/Cfg.h"
#include "estimators/BranchPrediction.h"
#include "lang/Ast.h"

#include <cstdint>
#include <map>
#include <vector>

namespace sest {

/// Which intra-procedural estimator to run.
enum class IntraEstimatorKind {
  Loop,   ///< loops ×5, branches 50/50
  Smart,  ///< loop + branch heuristics at 0.8/0.2
  Markov, ///< CFG linear system (see MarkovIntra.h)
};

/// Per-statement frequencies from the AST walk (keyed by statement node
/// id).
struct AstFrequencies {
  /// Times the statement executes.
  std::map<uint32_t, double> Exec;
  /// Times a loop/if/switch test evaluates.
  std::map<uint32_t, double> Test;
  /// Times a for-loop's step expression runs.
  std::map<uint32_t, double> Step;

  double lookup(const Stmt *S, AnchorKind K) const;
};

/// Configuration for the AST estimators.
struct AstEstimatorConfig {
  /// Loop vs Smart (Markov is a different code path).
  IntraEstimatorKind Kind = IntraEstimatorKind::Smart;
  /// Assumed loop iteration count.
  double LoopIterations = 5.0;
  /// Heuristics used when Kind == Smart.
  BranchPredictorConfig Branch;
};

/// Runs the top-down AST walk over \p F (which must be defined),
/// producing per-statement frequencies normalized to one function entry.
AstFrequencies estimateAstFrequencies(const FunctionDecl *F,
                                      const AstEstimatorConfig &Config);

/// Maps AST frequencies onto the blocks of \p G via each block's anchor
/// ("the frequencies from the AST are mapped to blocks in the CFG").
/// Returns one estimate per block id.
std::vector<double> blockEstimatesFromAst(const Cfg &G,
                                          const AstFrequencies &Freqs);

/// Convenience: AST walk + CFG mapping in one call.
std::vector<double> estimateBlockFrequencies(const Cfg &G,
                                             const AstEstimatorConfig &C);

} // namespace sest

#endif // ESTIMATORS_ASTESTIMATOR_H
