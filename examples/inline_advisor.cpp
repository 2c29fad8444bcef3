//===- examples/inline_advisor.cpp - Inlining from static estimates --------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's motivating inter-procedural client (§5.3): "In function
/// inlining, the crucial information derived from a profile is the
/// frequency of execution of specific call sites." This example ranks a
/// program's direct call sites with the src/opt/ WeightSource under the
/// static estimate, checks the advice against a real profile, then
/// actually inlines the top sites and differentially verifies that the
/// transformed program behaves identically.
///
/// Usage: inline_advisor [suite-program-name]   (default: gcc)
///
//===----------------------------------------------------------------------===//

#include "estimators/Pipeline.h"
#include "metrics/WeightMatching.h"
#include "opt/Inline.h"
#include "opt/WeightSource.h"
#include "suite/SuiteRunner.h"
#include "support/StringUtils.h"
#include "support/TextTable.h"

#include <cstdio>

using namespace sest;

namespace {

void print(const std::string &S) { std::fputs(S.c_str(), stdout); }

} // namespace

int main(int argc, char **argv) {
  std::string Name = argc > 1 ? argv[1] : "gcc";
  const SuiteProgram *Spec = findSuiteProgram(Name);
  if (!Spec) {
    print("unknown suite program '" + Name + "'\n");
    return 1;
  }

  CompiledSuiteProgram P = compileAndProfileProgram(*Spec);
  if (!P.Ok) {
    print(P.Error + "\n");
    return 1;
  }

  // Static estimate: smart intra + Markov inter, as the paper recommends.
  EstimatorOptions Options;
  ProgramEstimate E = estimateProgram(P.unit(), *P.Cfgs, *P.CG, Options);
  opt::WeightSource W =
      opt::weightsFromEstimate(P.unit(), *P.Cfgs, E, Options);

  Profile Agg = aggregateProfiles(P.Profiles);

  print("Inlining advice for '" + Name + "' (top 10 direct call sites "
        "by static estimate):\n\n");
  TextTable T;
  T.setHeader({"#", "Call site", "Line", "Estimated", "Actual (avg)"});
  std::vector<opt::RankedCallSite> Ranked = opt::rankCallSites(*P.CG, W);
  for (size_t I = 0; I < Ranked.size() && I < 10; ++I) {
    const CallSiteInfo *S = Ranked[I].Site;
    T.addRow({std::to_string(I + 1),
              S->Caller->name() + " -> " + S->Callee->name(),
              std::to_string(S->Site->loc().Line),
              formatDouble(Ranked[I].Weight, 1),
              formatDouble(Agg.CallSiteCounts[S->CallSiteId] /
                               static_cast<double>(P.Profiles.size()),
                           1)});
  }
  print(T.str());

  double Score = weightMatchingScore(E.CallSiteEstimates,
                                     Agg.CallSiteCounts, 0.25);
  print("\nWeight-matching of the advice vs. the aggregate profile at "
        "the 25% cutoff: " + formatPercent(Score) + "\n");
  print("(Indirect call sites are omitted: \"it is difficult or "
        "impossible to inline calls through pointers\", paper §5.3.)\n");

  // Act on the advice: clone the hottest callees into their callers and
  // prove by differential interpretation that nothing changed.
  opt::InlinePlan Plan = opt::planInlining(P.unit(), *P.Cfgs, *P.CG, W);
  if (Plan.Sites.empty()) {
    print("\nNo call site is inlinable under the default budget.\n");
    return 0;
  }
  RunResult Base = P.profilingRun(P.Profiles.size() - 1);
  opt::InlineMap Map = opt::applyInlining(*P.Ctx, *P.Cfgs, Plan);
  RunResult Inl = runProgram(P.unit(), *P.Cfgs, Spec->Inputs.back(), {});
  opt::InlineVerifyResult V = opt::compareInlinedRun(Base, Inl, Map);
  print("\nInlined " + std::to_string(Map.Applied.size()) +
        " sites; dynamic calls on input '" + Spec->Inputs.back().Name +
        "' dropped " + std::to_string(Base.LayoutCost.Calls) + " -> " +
        std::to_string(Inl.LayoutCost.Calls) + "; verification " +
        (V.Match ? "ok" : ("FAILED: " + V.Detail)) + "\n");
  return V.Match ? 0 : 1;
}
