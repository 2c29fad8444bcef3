//===- tests/test_sparse_markov.cpp - Sparse-vs-dense solver tests ---------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests for the sparse SCC-structured Markov solver
/// against the dense Gaussian-elimination oracle, and determinism tests
/// for the parallel estimation pipeline:
///
///  - randomized transition graphs: sparse and dense solutions agree to
///    1e-9 on well-conditioned systems;
///  - repair paths: the per-SCC-repaired system reported through
///    EffectiveProb is fed back to the dense solver, whose solution must
///    match the sparse one (the repair changes the model, not the math);
///  - fallback paths: with repair disabled both tiers degrade to the
///    same uniform fallback;
///  - every suite program and randomized synthetic CFGs: intra and
///    inter estimates identical across tiers;
///  - --jobs sweep: estimates, accuracy reports, and non-timing
///    telemetry are identical for every worker count.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "estimators/Pipeline.h"
#include "obs/Telemetry.h"
#include "suite/SuiteRunner.h"
#include "suite/Synthetic.h"
#include "support/LinearSystem.h"
#include "support/Prng.h"
#include "support/SparseMarkov.h"

#include <gtest/gtest.h>

using namespace sest;
using namespace sest::test;

namespace {

constexpr double Tol = 1e-9;

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

/// A random transition graph over \p N nodes. With \p Leaky, every
/// row's probabilities sum to at most 0.98, which makes I - Pᵀ strictly
/// column-diagonally dominant — guaranteed solvable by both tiers.
/// Without it rows sum to exactly 1, so probability-1 cycles (singular
/// systems needing repair) occur naturally.
std::vector<SparseArc> randomGraph(Prng &R, size_t N, bool Leaky) {
  std::vector<SparseArc> Arcs;
  for (uint32_t V = 0; V < N; ++V) {
    size_t Out = R.nextBelow(4);
    if (!Out)
      continue;
    std::vector<double> W(Out);
    double Sum = 0;
    for (double &X : W) {
      X = 0.05 + R.nextDouble();
      Sum += X;
    }
    double Scale = (Leaky ? 0.98 : 1.0) / Sum;
    for (size_t S = 0; S < Out; ++S)
      Arcs.push_back(
          {V, static_cast<uint32_t>(R.nextBelow(N)), W[S] * Scale});
  }
  return Arcs;
}

Matrix denseFromArcs(size_t N, const std::vector<SparseArc> &Arcs) {
  Matrix P(N, N);
  for (const SparseArc &A : Arcs)
    P.at(A.From, A.To) += A.Prob;
  return P;
}

std::vector<double> randomEntry(Prng &R, size_t N) {
  std::vector<double> Entry(N, 0.0);
  Entry[0] = 1.0;
  if (N > 1 && R.nextBelow(2))
    Entry[R.nextBelow(N)] += R.nextDouble();
  return Entry;
}

void expectNear(const std::vector<double> &A, const std::vector<double> &B,
                const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_NEAR(A[I], B[I], Tol) << What << " [" << I << "]";
}

//===----------------------------------------------------------------------===//
// Raw solver differential
//===----------------------------------------------------------------------===//

TEST_P(SeededTest, LeakyRandomGraphsMatchDense) {
  Prng R(GetParam());
  for (int Trial = 0; Trial < 40; ++Trial) {
    size_t N = 2 + R.nextBelow(60);
    std::vector<SparseArc> Arcs = randomGraph(R, N, /*Leaky=*/true);
    std::vector<double> Entry = randomEntry(R, N);

    SparseMarkovResult S = solveSparseMarkov(N, Arcs, Entry);
    auto D = solveMarkovFrequencies(denseFromArcs(N, Arcs), Entry);
    ASSERT_TRUE(S.Frequencies.has_value());
    ASSERT_TRUE(D.has_value());
    expectNear(*S.Frequencies, *D, "leaky trial " + std::to_string(Trial));

    // Without repair the effective probabilities are the input ones.
    ASSERT_EQ(S.EffectiveProb.size(), Arcs.size());
    for (size_t I = 0; I < Arcs.size(); ++I)
      EXPECT_EQ(S.EffectiveProb[I], Arcs[I].Prob);
    EXPECT_FALSE(S.Stats.Repaired);
  }
}

TEST_P(SeededTest, SingularParityWithDenseWhenRepairDisabled) {
  Prng R(GetParam());
  for (int Trial = 0; Trial < 40; ++Trial) {
    size_t N = 2 + R.nextBelow(30);
    std::vector<SparseArc> Arcs = randomGraph(R, N, /*Leaky=*/false);
    std::vector<double> Entry = randomEntry(R, N);

    SparseMarkovResult S = solveSparseMarkov(N, Arcs, Entry);
    auto D = solveMarkovFrequencies(denseFromArcs(N, Arcs), Entry);
    ASSERT_EQ(S.Frequencies.has_value(), D.has_value())
        << "solvability diverged on trial " << Trial;
    if (S.Frequencies)
      expectNear(*S.Frequencies, *D,
                 "singular-parity trial " + std::to_string(Trial));
  }
}

TEST_P(SeededTest, RepairedSystemSatisfiesDenseOracle) {
  Prng R(GetParam());
  unsigned Repaired = 0;
  for (int Trial = 0; Trial < 40; ++Trial) {
    size_t N = 2 + R.nextBelow(30);
    std::vector<SparseArc> Arcs = randomGraph(R, N, /*Leaky=*/false);
    std::vector<double> Entry = randomEntry(R, N);

    SparseMarkovConfig Config;
    Config.MaxRepairIterations = 40;
    SparseMarkovResult S = solveSparseMarkov(N, Arcs, Entry, Config);
    ASSERT_TRUE(S.Frequencies.has_value())
        << "repair failed on trial " << Trial;
    if (S.Stats.Repaired)
      ++Repaired;

    // The sparse solution must solve the *repaired* system exactly:
    // rebuild it densely from EffectiveProb and let the oracle solve.
    std::vector<SparseArc> Eff = Arcs;
    for (size_t I = 0; I < Eff.size(); ++I)
      Eff[I].Prob = S.EffectiveProb[I];
    auto D = solveMarkovFrequencies(denseFromArcs(N, Eff), Entry);
    ASSERT_TRUE(D.has_value());
    expectNear(*S.Frequencies, *D,
               "repair-oracle trial " + std::to_string(Trial));
  }
  // Probability-1 rows make singular systems common; the repair path
  // must actually have been exercised.
  EXPECT_GT(Repaired, 0u);
}

TEST(SparseMarkov, TrivialAndDisconnectedGraphs) {
  // Single node, no arcs.
  SparseMarkovResult S = solveSparseMarkov(1, {}, {1.0});
  ASSERT_TRUE(S.Frequencies.has_value());
  EXPECT_DOUBLE_EQ((*S.Frequencies)[0], 1.0);
  EXPECT_EQ(S.Stats.SccCount, 1u);
  EXPECT_EQ(S.Stats.CyclicSccCount, 0u);

  // A chain plus an unreachable self-loop node: the unreachable cycle
  // has no inflow, so its block solves to zero without repair.
  std::vector<SparseArc> Arcs = {{0, 1, 1.0}, {2, 2, 0.5}};
  S = solveSparseMarkov(3, Arcs, {1.0, 0.0, 0.0});
  ASSERT_TRUE(S.Frequencies.has_value());
  EXPECT_NEAR((*S.Frequencies)[1], 1.0, Tol);
  EXPECT_NEAR((*S.Frequencies)[2], 0.0, Tol);
}

//===----------------------------------------------------------------------===//
// Estimator-level differential (suite + synthetic programs)
//===----------------------------------------------------------------------===//

/// Runs the intra Markov estimator on every CFG of \p C under both
/// tiers and checks agreement (values compared only when neither tier
/// repaired; per-SCC vs global repair legitimately differ).
void expectIntraTiersAgree(Compiled &C, const std::string &Name) {
  for (const auto &[F, G] : C.Cfgs->all()) {
    MarkovIntraConfig Sparse, Dense;
    Sparse.Solver = MarkovSolverKind::Sparse;
    Dense.Solver = MarkovSolverKind::Dense;
    MarkovIntraResult RS = markovBlockFrequencies(*G, Sparse);
    MarkovIntraResult RD = markovBlockFrequencies(*G, Dense);
    std::string What = Name + "/" + F->name();
    EXPECT_EQ(RS.Repaired, RD.Repaired) << What;
    if (RS.Repaired || RD.Repaired)
      continue;
    expectNear(RS.BlockFrequencies, RD.BlockFrequencies, What);
    ASSERT_EQ(RS.ArcFrequencies.size(), RD.ArcFrequencies.size()) << What;
    for (size_t B = 0; B < RS.ArcFrequencies.size(); ++B)
      expectNear(RS.ArcFrequencies[B], RD.ArcFrequencies[B],
                 What + " arcs of block " + std::to_string(B));
  }
}

TEST(SparseMarkov, SuiteProgramsIntraTiersAgree) {
  for (const SuiteProgram &P : benchmarkSuite()) {
    auto C = compile(P.Source);
    ASSERT_TRUE(C) << P.Name;
    expectIntraTiersAgree(*C, P.Name);
  }
}

TEST_P(SeededTest, SyntheticProgramsIntraTiersAgree) {
  SyntheticConfig Config;
  Config.Shape = SyntheticShape::Mixed;
  Config.TargetBlocks = 250;
  Config.Seed = GetParam();
  auto C = compile(generateSyntheticSource(Config));
  ASSERT_TRUE(C);
  expectIntraTiersAgree(*C, "synthetic");
}

/// Inter-procedural differential: the whole pipeline (Markov inter on
/// top of solver-independent smart intra) must agree across tiers —
/// including programs whose recursion drives the §5.2.2 repair ladder,
/// which is deliberately identical on both tiers.
void expectInterTiersAgree(Compiled &C, const std::string &Name) {
  CallGraph CG = CallGraph::build(C.unit(), *C.Cfgs);
  EstimatorOptions Sparse, Dense;
  Sparse.Intra = Dense.Intra = IntraEstimatorKind::Smart;
  Sparse.setSolver(MarkovSolverKind::Sparse);
  Dense.setSolver(MarkovSolverKind::Dense);
  ProgramEstimate ES = estimateProgram(C.unit(), *C.Cfgs, CG, Sparse);
  ProgramEstimate ED = estimateProgram(C.unit(), *C.Cfgs, CG, Dense);
  expectNear(ES.FunctionEstimates, ED.FunctionEstimates,
             Name + " function estimates");
  expectNear(ES.CallSiteEstimates, ED.CallSiteEstimates,
             Name + " call-site estimates");
}

TEST(SparseMarkov, SuiteProgramsInterTiersAgree) {
  for (const SuiteProgram &P : benchmarkSuite()) {
    auto C = compile(P.Source);
    ASSERT_TRUE(C) << P.Name;
    expectInterTiersAgree(*C, P.Name);
  }
}

TEST_P(SeededTest, SyntheticWideCallsInterTiersAgree) {
  SyntheticConfig Config;
  Config.Shape = SyntheticShape::WideCalls;
  Config.TargetBlocks = 300;
  Config.Seed = GetParam();
  auto C = compile(generateSyntheticSource(Config));
  ASSERT_TRUE(C);
  expectInterTiersAgree(*C, "synthetic-wide-calls");
}

TEST(SparseMarkov, FallbackParityWithRepairDisabled) {
  // A probability-1 cycle with repair off: both tiers must take the
  // identical uniform fallback.
  auto C = compile("int main() {\n"
                   "  for (;;) {\n"
                   "    int x = 1;\n"
                   "  }\n"
                   "  return 0;\n"
                   "}\n");
  ASSERT_TRUE(C);
  const Cfg *G = C->cfg("main");
  ASSERT_NE(G, nullptr);
  MarkovIntraConfig Sparse, Dense;
  Sparse.Solver = MarkovSolverKind::Sparse;
  Dense.Solver = MarkovSolverKind::Dense;
  Sparse.MaxRepairIterations = Dense.MaxRepairIterations = 0;
  MarkovIntraResult RS = markovBlockFrequencies(*G, Sparse);
  MarkovIntraResult RD = markovBlockFrequencies(*G, Dense);
  EXPECT_TRUE(RS.Repaired);
  EXPECT_TRUE(RD.Repaired);
  EXPECT_EQ(RS.BlockFrequencies, RD.BlockFrequencies);
  EXPECT_EQ(RS.ArcFrequencies, RD.ArcFrequencies);
}

//===----------------------------------------------------------------------===//
// Parallel pipeline determinism
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, EstimatesBitIdenticalAcrossJobs) {
  SyntheticConfig Config;
  Config.Shape = SyntheticShape::Mixed;
  Config.TargetBlocks = 400;
  Config.Seed = 11;
  auto C = compile(generateSyntheticSource(Config));
  ASSERT_TRUE(C);
  CallGraph CG = CallGraph::build(C->unit(), *C->Cfgs);

  EstimatorOptions Opts;
  Opts.Intra = IntraEstimatorKind::Markov;
  Opts.Jobs = 1;
  ProgramEstimate Serial = estimateProgram(C->unit(), *C->Cfgs, CG, Opts);
  for (unsigned Jobs : {2u, 8u, 0u}) {
    Opts.Jobs = Jobs;
    ProgramEstimate E = estimateProgram(C->unit(), *C->Cfgs, CG, Opts);
    EXPECT_EQ(Serial.BlockEstimates, E.BlockEstimates) << Jobs;
    EXPECT_EQ(Serial.FunctionEstimates, E.FunctionEstimates) << Jobs;
    EXPECT_EQ(Serial.CallSiteEstimates, E.CallSiteEstimates) << Jobs;
    ASSERT_EQ(Serial.Predictions.size(), E.Predictions.size());
  }
}

TEST(ParallelPipeline, SuiteAccuracyReportByteIdenticalAcrossJobs) {
  std::vector<CompiledSuiteProgram> Programs =
      compileAndProfileSuite(InterpOptions{}, /*Jobs=*/0);
  std::string Serial = suiteAccuracyReportJson(Programs, 20, 1);
  EXPECT_FALSE(Serial.empty());
  for (unsigned Jobs : {2u, 4u}) {
    std::string Parallel = suiteAccuracyReportJson(Programs, 20, Jobs);
    EXPECT_EQ(Serial, Parallel) << "jobs=" << Jobs;
  }
}

TEST(ParallelPipeline, SuiteAccuracyTelemetryMatchesSerial) {
  std::vector<CompiledSuiteProgram> Programs =
      compileAndProfileSuite(InterpOptions{}, /*Jobs=*/0);

  obs::Telemetry SerialTele, ParallelTele;
  SerialTele.install();
  std::vector<obs::AccuracyReport> Serial =
      computeSuiteAccuracy(Programs, {}, 1);
  SerialTele.uninstall();
  ParallelTele.install();
  std::vector<obs::AccuracyReport> Parallel =
      computeSuiteAccuracy(Programs, {}, 4);
  ParallelTele.uninstall();

  ASSERT_EQ(Serial.size(), Parallel.size());
  ASSERT_EQ(SerialTele.counters().size(), ParallelTele.counters().size());
  for (const auto &[Name, Value] : SerialTele.counters()) {
    auto It = ParallelTele.counters().find(Name);
    ASSERT_NE(It, ParallelTele.counters().end()) << Name;
    if (Name.find("_ms") == std::string::npos &&
        Name.find("_us") == std::string::npos) {
      EXPECT_EQ(Value, It->second) << Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// Telemetry surface
//===----------------------------------------------------------------------===//

TEST(SparseMarkov, RecordsSolverTelemetry) {
  auto C = compile("int main() {\n"
                   "  int i;\n"
                   "  int s = 0;\n"
                   "  for (i = 0; i < 10; i++)\n"
                   "    s = s + i;\n"
                   "  return s;\n"
                   "}\n");
  ASSERT_TRUE(C);
  const Cfg *G = C->cfg("main");
  ASSERT_NE(G, nullptr);

  obs::Telemetry Tele;
  Tele.install();
  markovBlockFrequencies(*G, MarkovIntraConfig());
  Tele.uninstall();

  EXPECT_GE(Tele.counters().at("support.sparse.solves"), 1.0);
  EXPECT_GE(Tele.counters().at("support.sparse.dense_subsolves"), 1.0);
  EXPECT_TRUE(Tele.histograms().count("support.sparse.scc_count"));
  EXPECT_TRUE(Tele.histograms().count("support.sparse.max_scc_size"));
  EXPECT_TRUE(Tele.histograms().count("support.sparse.dense_dim"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values(1u, 2u, 3u, 42u));

} // namespace
