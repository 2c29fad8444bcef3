//===- estimators/InterEstimators.cpp - Inter-procedural estimates ---------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "estimators/InterEstimators.h"

#include "obs/EventLog.h"
#include "obs/Telemetry.h"
#include "support/LinearSystem.h"
#include "support/Scc.h"
#include "support/SparseMarkov.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

using namespace sest;

namespace {

/// Functions that directly call themselves.
std::set<size_t> directlyRecursive(const CallGraph &CG) {
  std::set<size_t> Out;
  for (const CallSiteInfo &S : CG.sites())
    if (S.Callee && S.Callee == S.Caller)
      Out.insert(S.Caller->functionId());
  return Out;
}

/// Functions in any direct-call cycle (SCC of size > 1, or self-arc).
std::set<size_t> anyRecursive(const TranslationUnit &Unit,
                              const CallGraph &CG) {
  std::set<size_t> Out = directlyRecursive(CG);
  SccResult Scc = computeScc(Unit.Functions.size(), CG.directAdjacency());
  for (size_t F = 0; F < Unit.Functions.size(); ++F)
    if (Scc.inNontrivialComponent(F))
      Out.insert(F);
  return Out;
}

/// The §4.3 simple algorithm: per-function counts as the sum of the
/// (optionally rescaled) local block counts of their call sites, with
/// indirect-site totals split across address-taken functions.
std::vector<double>
simpleCounts(const TranslationUnit &Unit, const CallGraph &CG,
             const IntraEstimates &Intra,
             const std::vector<double> *BlockScale) {
  std::vector<double> Est(Unit.Functions.size(), 0.0);
  if (const FunctionDecl *Main = Unit.findFunction("main"))
    Est[Main->functionId()] += 1.0; // the program invokes main once

  double IndirectTotal = 0.0;
  for (const CallSiteInfo &S : CG.sites()) {
    double Local = Intra.localSiteFrequency(S);
    if (BlockScale)
      Local *= (*BlockScale)[S.Caller->functionId()];
    if (S.Callee)
      Est[S.Callee->functionId()] += Local;
    else
      IndirectTotal += Local;
  }

  // "indirect call site counts are summed and divided among the
  // functions whose address is taken, weighted by the (static) number of
  // address-of operations" (§4.3).
  if (IndirectTotal > 0 && CG.totalAddressTakenWeight() > 0) {
    for (const auto &[F, W] : CG.addressTakenFunctions())
      Est[F->functionId()] +=
          IndirectTotal * W / CG.totalAddressTakenWeight();
  }
  return Est;
}

void applyRecursionFactor(std::vector<double> &Est,
                          const std::set<size_t> &Recursive,
                          double Factor) {
  for (size_t F : Recursive)
    Est[F] *= Factor;
}

//===----------------------------------------------------------------------===//
// Markov call-graph model (§5.2)
//===----------------------------------------------------------------------===//

/// A weighted directed graph over function nodes + optional pointer node.
struct WeightedCallGraph {
  size_t NumNodes = 0;
  size_t PointerNode = SIZE_MAX; ///< SIZE_MAX when absent.
  /// Arc weights, merged per (from, to).
  std::map<std::pair<size_t, size_t>, double> W;
  size_t EntryNode = SIZE_MAX;

  std::vector<std::vector<size_t>> adjacency() const {
    std::vector<std::vector<size_t>> Adj(NumNodes);
    for (const auto &[Arc, Weight] : W)
      if (Weight > 0)
        Adj[Arc.first].push_back(Arc.second);
    return Adj;
  }
};

WeightedCallGraph buildWeightedGraph(const TranslationUnit &Unit,
                                     const CallGraph &CG,
                                     const IntraEstimates &Intra) {
  WeightedCallGraph G;
  G.NumNodes = Unit.Functions.size();
  bool NeedPointerNode = !CG.indirectSites().empty();
  if (NeedPointerNode) {
    G.PointerNode = G.NumNodes;
    ++G.NumNodes;
  }

  for (const CallSiteInfo &S : CG.sites()) {
    double Local = Intra.localSiteFrequency(S);
    if (Local <= 0)
      continue;
    size_t From = S.Caller->functionId();
    size_t To = S.Callee ? S.Callee->functionId() : G.PointerNode;
    G.W[{From, To}] += Local;
  }

  if (NeedPointerNode && CG.totalAddressTakenWeight() > 0) {
    for (const auto &[F, Weight] : CG.addressTakenFunctions())
      G.W[{G.PointerNode, F->functionId()}] =
          static_cast<double>(Weight) / CG.totalAddressTakenWeight();
  }

  if (const FunctionDecl *Main = Unit.findFunction("main"))
    G.EntryNode = Main->functionId();
  return G;
}

/// The graph's arcs as a dense-indexed sparse arc list (map order, so
/// deterministic).
std::vector<SparseArc> sparseArcs(const WeightedCallGraph &G) {
  std::vector<SparseArc> Arcs;
  Arcs.reserve(G.W.size());
  for (const auto &[Arc, Weight] : G.W)
    Arcs.push_back({static_cast<uint32_t>(Arc.first),
                    static_cast<uint32_t>(Arc.second), Weight});
  return Arcs;
}

/// Solves f = e + Wᵀ f over the whole graph. Returns empty on a singular
/// system. The repair ladder below owns all singular handling, so the
/// sparse tier runs with its internal per-SCC repair disabled — both
/// tiers fail identically and the ladder's behavior is solver-invariant.
std::optional<std::vector<double>>
solveWhole(const WeightedCallGraph &G, const InterEstimatorConfig &Config) {
  std::vector<double> Entry(G.NumNodes, 0.0);
  if (G.EntryNode != SIZE_MAX)
    Entry[G.EntryNode] = 1.0;

  if (Config.Solver == MarkovSolverKind::Sparse) {
    std::vector<SparseArc> Arcs = sparseArcs(G);
    SparseMarkovResult R =
        solveSparseMarkov(G.NumNodes, Arcs, Entry, SparseMarkovConfig());
    obs::counterAdd("support.sparse.solves");
    obs::histRecord("support.sparse.dim",
                    static_cast<double>(G.NumNodes));
    obs::histRecord("support.sparse.scc_count",
                    static_cast<double>(R.Stats.SccCount));
    obs::histRecord("support.sparse.max_scc_size",
                    static_cast<double>(R.Stats.MaxSccSize));
    if (R.Stats.CyclicSccCount) {
      obs::counterAdd("support.sparse.dense_subsolves",
                      static_cast<double>(R.Stats.CyclicSccCount));
      obs::histRecord("support.sparse.dense_dim",
                      static_cast<double>(R.Stats.DenseDim));
    }
    if (!R.Frequencies) {
      obs::counterAdd("support.sparse.singular");
      return std::nullopt;
    }
    if (obs::telemetryActive()) {
      // Residual of f = e + Wᵀf over the whole call graph.
      std::vector<double> Flow = Entry;
      for (const SparseArc &A : Arcs)
        Flow[A.To] += A.Prob * (*R.Frequencies)[A.From];
      double Worst = 0.0;
      for (size_t I = 0; I < Flow.size(); ++I)
        Worst =
            std::max(Worst, std::fabs((*R.Frequencies)[I] - Flow[I]));
      obs::histRecord("estimators.markov_inter.residual", Worst);
    }
    return std::move(R.Frequencies);
  }

  Matrix P(G.NumNodes, G.NumNodes);
  for (const auto &[Arc, Weight] : G.W)
    P.at(Arc.first, Arc.second) += Weight;
  auto F = solveMarkovFrequencies(P, Entry);
  obs::counterAdd("support.linsys.solves");
  obs::histRecord("support.linsys.dim", static_cast<double>(G.NumNodes));
  if (!F) {
    obs::counterAdd("support.linsys.singular");
  } else if (obs::telemetryActive()) {
    // Residual of f = e + Wᵀf over the whole call graph.
    double Worst = 0.0;
    for (size_t I = 0; I < F->size(); ++I) {
      double Flow = Entry[I];
      for (size_t J = 0; J < F->size(); ++J)
        Flow += P.at(J, I) * (*F)[J];
      Worst = std::max(Worst, std::fabs((*F)[I] - Flow));
    }
    obs::histRecord("estimators.markov_inter.residual", Worst);
  }
  return F;
}

/// Solves one dense-indexed arc system on the configured tier (used by
/// the §5.2.2 subproblems; the repair acceptance logic stays in the
/// caller, so the sparse tier runs with internal repair off).
std::optional<std::vector<double>>
solveArcSystem(size_t N, const std::vector<SparseArc> &Arcs,
               const std::vector<double> &Entry, MarkovSolverKind Kind) {
  if (Kind == MarkovSolverKind::Sparse)
    return solveSparseMarkov(N, Arcs, Entry, SparseMarkovConfig())
        .Frequencies;
  Matrix P(N, N);
  for (const SparseArc &A : Arcs)
    P.at(A.From, A.To) += A.Prob;
  return solveMarkovFrequencies(P, Entry);
}

bool solutionIsValid(const std::vector<double> &F) {
  for (double V : F)
    if (!(V >= -1e-9) || !std::isfinite(V) || V > 1e15)
      return false;
  return true;
}

/// Repairs one strongly connected component per §5.2.2: build a
/// subproblem with an artificial main whose arcs carry the component's
/// external inflow proportions, then scale the component's internal arc
/// probabilities until the subproblem solves with no negative values and
/// nothing above the ceiling. Returns the number of scalings applied
/// (0 = the component needed none).
unsigned repairScc(WeightedCallGraph &G, const std::vector<size_t> &Component,
                   const InterEstimatorConfig &Config) {
  if (Component.size() < 2)
    return 0;
  std::set<size_t> InScc(Component.begin(), Component.end());

  // External inflow per member: "the arc from the artificial main node of
  // the subproblem to each of the nodes in the SCC received a flow of
  // m/n, where m is the number of calls to the target from outside the
  // SCC, and n the total number of calls into the SCC from outside".
  std::map<size_t, double> Inflow;
  double TotalInflow = 0.0;
  for (const auto &[Arc, Weight] : G.W) {
    if (!InScc.count(Arc.first) && InScc.count(Arc.second)) {
      Inflow[Arc.second] += Weight;
      TotalInflow += Weight;
    }
  }

  // Dense renumbering: member i -> index i, artificial main -> last.
  std::map<size_t, size_t> Index;
  for (size_t I = 0; I < Component.size(); ++I)
    Index[Component[I]] = I;
  const size_t N = Component.size() + 1;
  const size_t MainIdx = Component.size();

  obs::counterAdd("estimators.markov_inter.scc_repairs");
  obs::histRecord("estimators.markov_inter.scc_size",
                  static_cast<double>(Component.size()));
  for (unsigned Iter = 0; Iter < Config.MaxSccRepairIterations; ++Iter) {
    obs::counterAdd("estimators.markov_inter.scc_repair_iterations");
    std::vector<SparseArc> Arcs;
    for (const auto &[Arc, Weight] : G.W)
      if (InScc.count(Arc.first) && InScc.count(Arc.second))
        Arcs.push_back({static_cast<uint32_t>(Index[Arc.first]),
                        static_cast<uint32_t>(Index[Arc.second]), Weight});
    for (size_t I = 0; I < Component.size(); ++I) {
      double Flow = TotalInflow > 0
                        ? (Inflow.count(Component[I])
                               ? Inflow[Component[I]] / TotalInflow
                               : 0.0)
                        : 1.0 / Component.size();
      Arcs.push_back({static_cast<uint32_t>(MainIdx),
                      static_cast<uint32_t>(I), Flow});
    }
    std::vector<double> Entry(N, 0.0);
    Entry[MainIdx] = 1.0;

    auto F = solveArcSystem(N, Arcs, Entry, Config.Solver);
    bool Ok = F.has_value();
    if (Ok) {
      for (size_t I = 0; I < Component.size(); ++I)
        if ((*F)[I] < -1e-9 || (*F)[I] > Config.SccCeiling)
          Ok = false;
    }
    if (Ok)
      return Iter;

    // "we scale down all the arc probabilities in the SCC by a constant,
    // repeating until the solution succeeds."
    for (auto &[Arc, Weight] : G.W)
      if (InScc.count(Arc.first) && InScc.count(Arc.second))
        Weight *= Config.SccScale;
  }
  return Config.MaxSccRepairIterations;
}

std::vector<double> markovFunctionCounts(const TranslationUnit &Unit,
                                         const CallGraph &CG,
                                         const IntraEstimates &Intra,
                                         const InterEstimatorConfig &Config) {
  obs::counterAdd("estimators.markov_inter.solves");
  WeightedCallGraph G = buildWeightedGraph(Unit, CG, Intra);
  size_t NumFns = Unit.Functions.size();

  // Step 1: direct recursive arcs with probability >= 1 become 0.8. (A
  // weight of exactly 1 is just as impossible as the paper's 1.6 — "for
  // every time the function is called, it calls itself again", i.e. it
  // never returns — and leaves the system singular.)
  for (auto &[Arc, Weight] : G.W)
    if (Arc.first == Arc.second && Weight >= 1.0)
      Weight = Config.RecursiveArcProbability;

  // Step 2: attempt the whole program.
  auto F = solveWhole(G, Config);
  if (!F || !solutionIsValid(*F)) {
    // Step 3: repair each SCC in isolation, then re-solve.
    SccResult Scc = computeScc(G.NumNodes, G.adjacency());
    for (const auto &Component : Scc.Components) {
      unsigned Scalings = repairScc(G, Component, Config);
      if (Scalings && obs::eventLogActive()) {
        // Name the repaired cycle by its smallest *function* node — the
        // pointer node (index NumFns) stands for all indirect targets
        // and has no accuracy-report entity; a multi-node SCC always
        // contains defined functions, so a representative exists.
        size_t Rep = SIZE_MAX;
        for (size_t Node : Component)
          if (Node < NumFns && Node < Rep)
            Rep = Node;
        if (Rep != SIZE_MAX)
          obs::logEvent(
              "solver.scc.repair",
              obs::provFunction(Unit.Functions[Rep]->name()),
              {obs::attr("scope", "inter"),
               obs::attr("size", static_cast<double>(Component.size())),
               obs::attr("iterations", static_cast<double>(Scalings))});
      }
    }
    F = solveWhole(G, Config);
  }

  // Step 4: last resort — scale everything until the system solves.
  unsigned Guard = 0;
  while ((!F || !solutionIsValid(*F)) &&
         Guard++ < Config.MaxSccRepairIterations) {
    obs::counterAdd("estimators.markov_inter.rescale_iterations");
    for (auto &[Arc, Weight] : G.W)
      Weight *= Config.SccScale;
    F = solveWhole(G, Config);
  }
  obs::counterAdd("estimators.markov_inter.iterations", Guard + 1);
  if (!F || !solutionIsValid(*F))
    obs::counterAdd("estimators.markov_inter.fallback_uniform");

  std::vector<double> Out(NumFns, 0.0);
  if (F && solutionIsValid(*F)) {
    for (size_t I = 0; I < NumFns; ++I)
      Out[I] = std::max(0.0, (*F)[I]);
  } else {
    // Degenerate graph: every function once.
    Out.assign(NumFns, 1.0);
  }
  return Out;
}

} // namespace

std::vector<double> sest::estimateFunctionFrequencies(
    InterEstimatorKind Kind, const TranslationUnit &Unit,
    const CallGraph &CG, const IntraEstimates &Intra,
    const InterEstimatorConfig &Config) {
  switch (Kind) {
  case InterEstimatorKind::CallSite:
    return simpleCounts(Unit, CG, Intra, nullptr);
  case InterEstimatorKind::Direct: {
    std::vector<double> Est = simpleCounts(Unit, CG, Intra, nullptr);
    applyRecursionFactor(Est, directlyRecursive(CG),
                         Config.RecursionFactor);
    return Est;
  }
  case InterEstimatorKind::AllRec: {
    std::vector<double> Est = simpleCounts(Unit, CG, Intra, nullptr);
    applyRecursionFactor(Est, anyRecursive(Unit, CG),
                         Config.RecursionFactor);
    return Est;
  }
  case InterEstimatorKind::AllRec2: {
    // "all_rec2 uses the function invocation counts of all_rec to scale
    // up the execution counts of basic blocks, then reapplies the
    // algorithm to compute new function counts" (§4.3).
    std::vector<double> First = simpleCounts(Unit, CG, Intra, nullptr);
    applyRecursionFactor(First, anyRecursive(Unit, CG),
                         Config.RecursionFactor);
    std::vector<double> Est = simpleCounts(Unit, CG, Intra, &First);
    applyRecursionFactor(Est, anyRecursive(Unit, CG),
                         Config.RecursionFactor);
    return Est;
  }
  case InterEstimatorKind::Markov:
    return markovFunctionCounts(Unit, CG, Intra, Config);
  }
  return std::vector<double>(Unit.Functions.size(), 0.0);
}

std::vector<CallArcEstimate> sest::estimateCallArcFrequencies(
    const TranslationUnit &Unit, const CallGraph &CG,
    const IntraEstimates &Intra, const std::vector<double> &FunctionFreqs) {
  (void)Unit;
  std::map<std::pair<const FunctionDecl *, const FunctionDecl *>,
           CallArcEstimate>
      Arcs;
  for (const CallSiteInfo &S : CG.sites()) {
    if (S.isIndirect())
      continue;
    CallArcEstimate &A = Arcs[{S.Caller, S.Callee}];
    A.Caller = S.Caller;
    A.Callee = S.Callee;
    A.Frequency += Intra.localSiteFrequency(S) *
                   FunctionFreqs[S.Caller->functionId()];
    A.NumSites += 1;
  }
  std::vector<CallArcEstimate> Out;
  Out.reserve(Arcs.size());
  for (auto &[Key, A] : Arcs)
    Out.push_back(A);
  std::sort(Out.begin(), Out.end(),
            [](const CallArcEstimate &A, const CallArcEstimate &B) {
              if (A.Frequency != B.Frequency)
                return A.Frequency > B.Frequency;
              // Deterministic tie-break by ids.
              if (A.Caller->functionId() != B.Caller->functionId())
                return A.Caller->functionId() < B.Caller->functionId();
              return A.Callee->functionId() < B.Callee->functionId();
            });
  return Out;
}

std::vector<double> sest::estimateCallSiteFrequencies(
    const TranslationUnit &Unit, const CallGraph &CG,
    const IntraEstimates &Intra, const std::vector<double> &FunctionFreqs) {
  std::vector<double> Out(Unit.NumCallSites, -1.0);
  for (const CallSiteInfo &S : CG.sites()) {
    if (S.isIndirect())
      continue; // omitted, §5.3
    double Local = Intra.localSiteFrequency(S);
    Out[S.CallSiteId] = Local * FunctionFreqs[S.Caller->functionId()];
  }
  return Out;
}
