//===- estimators/AstEstimator.cpp - AST frequency estimation --------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "estimators/AstEstimator.h"

#include "estimators/LoopBounds.h"

using namespace sest;

double AstFrequencies::lookup(const Stmt *S, AnchorKind K) const {
  if (!S)
    return 0.0;
  const std::map<uint32_t, double> *M = nullptr;
  switch (K) {
  case AnchorKind::Exec:
    M = &Exec;
    break;
  case AnchorKind::Test:
    M = &Test;
    break;
  case AnchorKind::Step:
    M = &Step;
    break;
  }
  auto It = M->find(S->nodeId());
  return It == M->end() ? 0.0 : It->second;
}

namespace {

/// The single top-down tree walk of Figure 3.
class AstWalker {
public:
  AstWalker(const AstEstimatorConfig &Config, const FunctionDecl *F)
      : Config(Config), Predictor(Config.Branch) {
    if (Config.Kind == IntraEstimatorKind::Smart &&
        Config.Branch.UseStoreHeuristic)
      ReadVars = collectReadVariables(F);
  }

  AstFrequencies run(const FunctionDecl *F) {
    walk(F->body(), 1.0);
    return std::move(Freqs);
  }

private:
  double probTrue(const IfStmt *S) const {
    if (Config.Kind == IntraEstimatorKind::Loop)
      return 0.5;
    return Predictor.predictIf(S, ReadVars).ProbTrue;
  }

  void walk(const Stmt *S, double F) {
    if (!S)
      return;
    Freqs.Exec[S->nodeId()] = F;
    const double L = Config.LoopIterations;

    switch (S->kind()) {
    case StmtKind::Compound:
      for (const Stmt *Child : stmtCast<CompoundStmt>(S)->body())
        walk(Child, F);
      return;
    case StmtKind::If: {
      const auto *I = stmtCast<IfStmt>(S);
      Freqs.Test[S->nodeId()] = F;
      double P = probTrue(I);
      walk(I->thenStmt(), F * P);
      walk(I->elseStmt(), F * (1.0 - P));
      return;
    }
    case StmtKind::While: {
      const auto *W = stmtCast<WhileStmt>(S);
      // "the while loop is assumed to execute five times, so items in
      // its body execute four times" (Figure 3).
      Freqs.Test[S->nodeId()] = F * L;
      walk(W->body(), F * (L - 1.0));
      return;
    }
    case StmtKind::DoWhile: {
      const auto *D = stmtCast<DoWhileStmt>(S);
      Freqs.Test[S->nodeId()] = F * (L - 1.0);
      walk(D->body(), F * (L - 1.0));
      return;
    }
    case StmtKind::For: {
      const auto *Fs = stmtCast<ForStmt>(S);
      double Body = L - 1.0;
      if (Config.Branch.UseConstantLoopBounds)
        if (auto Trips =
                constantTripCount(Fs, Config.Branch.MaxConstantTrips))
          Body = *Trips;
      Freqs.Test[S->nodeId()] = F * (Body + 1.0);
      Freqs.Step[S->nodeId()] = F * Body;
      walk(Fs->init(), F);
      walk(Fs->body(), F * Body);
      return;
    }
    case StmtKind::Switch:
      walkSwitch(stmtCast<SwitchStmt>(S), F);
      return;
    default:
      // Leaves (expr/decl/break/continue/return/goto/label/null). The
      // AST model deliberately ignores the control effects of
      // break/continue/goto/return (§4.2).
      return;
    }
  }

  void walkSwitch(const SwitchStmt *S, double F) {
    Freqs.Test[S->nodeId()] = F;

    // Partition the switch body into arms headed by case/default labels.
    std::vector<const Stmt *> Children;
    if (const auto *Body = stmtDynCast<CompoundStmt>(S->body()))
      Children.assign(Body->body().begin(), Body->body().end());
    else if (S->body())
      Children.push_back(S->body());

    unsigned NumLabels = 0;
    bool HasDefault = false;
    for (const Stmt *C : Children) {
      if (C->kind() == StmtKind::CaseLabel)
        ++NumLabels;
      else if (C->kind() == StmtKind::DefaultLabel) {
        ++NumLabels;
        HasDefault = true;
      }
    }
    // Without an explicit default, the "fall past the switch" outcome is
    // one more (invisible) arm.
    double TotalWeight = NumLabels + (HasDefault ? 0 : 1);
    if (TotalWeight == 0)
      return;

    // Statements before the first label are dead; arm frequency applies
    // from each label onward. Consecutive labels each carry weight; the
    // statements after them run at the frequency of their own label only
    // (the AST model ignores fallthrough, like break).
    double ArmFreq = 0.0;
    for (const Stmt *C : Children) {
      if (C->kind() == StmtKind::CaseLabel ||
          C->kind() == StmtKind::DefaultLabel) {
        ArmFreq = F / TotalWeight;
        Freqs.Exec[C->nodeId()] = ArmFreq;
        continue;
      }
      walk(C, ArmFreq);
    }
  }

  const AstEstimatorConfig &Config;
  BranchPredictor Predictor;
  std::set<const VarDecl *> ReadVars;
  AstFrequencies Freqs;
};

} // namespace

AstFrequencies sest::estimateAstFrequencies(const FunctionDecl *F,
                                            const AstEstimatorConfig &C) {
  assert(F->isDefined() && "AST estimation needs a body");
  AstWalker W(C, F);
  return W.run(F);
}

std::vector<double> sest::blockEstimatesFromAst(const Cfg &G,
                                                const AstFrequencies &Freqs) {
  std::vector<double> Out(G.size(), 0.0);
  for (const auto &B : G.blocks()) {
    double V = Freqs.lookup(B->anchor(), B->anchorKind());
    // Synthetic blocks without a frequency (e.g. an empty entry that
    // survived simplification) execute once per call.
    if (B->anchor() == nullptr && B.get() == G.entry())
      V = 1.0;
    Out[B->id()] = V;
  }
  return Out;
}

std::vector<double>
sest::estimateBlockFrequencies(const Cfg &G, const AstEstimatorConfig &C) {
  AstFrequencies F = estimateAstFrequencies(G.function(), C);
  return blockEstimatesFromAst(G, F);
}
