//===- tests/test_properties.cpp - Property-based invariant tests ----------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-style tests (parameterized over PRNG seeds) for the
/// invariants the paper's machinery rests on: weight-matching metric
/// laws, Markov solution laws, aggregation laws, and interpreter
/// arithmetic fidelity.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "estimators/MarkovIntra.h"
#include "metrics/WeightMatching.h"
#include "profile/Profile.h"
#include "support/Prng.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace sest;
using namespace sest::test;

namespace {

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

std::vector<double> randomWeights(Prng &R, size_t N, double ZeroFraction) {
  std::vector<double> V(N);
  for (double &X : V) {
    if (R.nextDouble() < ZeroFraction)
      X = 0;
    else
      X = R.nextDouble() * 100.0;
  }
  return V;
}

//===----------------------------------------------------------------------===//
// Weight-matching laws
//===----------------------------------------------------------------------===//

TEST_P(SeededTest, WeightMatchingBoundedInUnitInterval) {
  Prng R(GetParam());
  for (int Trial = 0; Trial < 50; ++Trial) {
    size_t N = 1 + R.nextBelow(40);
    auto Est = randomWeights(R, N, 0.3);
    auto Act = randomWeights(R, N, 0.3);
    double Cutoff = R.nextDouble();
    double S = weightMatchingScore(Est, Act, Cutoff);
    EXPECT_GE(S, 0.0);
    EXPECT_LE(S, 1.0);
  }
}

TEST_P(SeededTest, WeightMatchingPerfectOnSelf) {
  Prng R(GetParam());
  for (int Trial = 0; Trial < 50; ++Trial) {
    size_t N = 1 + R.nextBelow(40);
    auto Act = randomWeights(R, N, 0.2);
    double Cutoff = 0.05 + R.nextDouble() * 0.9;
    EXPECT_NEAR(weightMatchingScore(Act, Act, Cutoff), 1.0, 1e-12);
  }
}

TEST_P(SeededTest, WeightMatchingFullCutoffIsPerfect) {
  Prng R(GetParam());
  size_t N = 1 + R.nextBelow(30);
  auto Est = randomWeights(R, N, 0.3);
  auto Act = randomWeights(R, N, 0.3);
  EXPECT_NEAR(weightMatchingScore(Est, Act, 1.0), 1.0, 1e-12);
}

TEST_P(SeededTest, WeightMatchingInvariantUnderEstimateScaling) {
  // Only the *ranking* of the estimate matters.
  Prng R(GetParam());
  size_t N = 2 + R.nextBelow(30);
  auto Est = randomWeights(R, N, 0.0);
  auto Act = randomWeights(R, N, 0.3);
  double Cutoff = 0.05 + R.nextDouble() * 0.9;
  auto Scaled = Est;
  double Factor = 0.5 + R.nextDouble() * 10.0;
  for (double &V : Scaled)
    V *= Factor;
  EXPECT_NEAR(weightMatchingScore(Est, Act, Cutoff),
              weightMatchingScore(Scaled, Act, Cutoff), 1e-12);
}

//===----------------------------------------------------------------------===//
// Aggregation laws
//===----------------------------------------------------------------------===//

Profile randomProfile(Prng &R, size_t Blocks) {
  Profile P;
  P.Functions.resize(1);
  auto &F = P.Functions[0];
  F.EntryCount = 1 + R.nextBelow(10);
  F.BlockCounts = randomWeights(R, Blocks, 0.2);
  F.ArcCounts.assign(Blocks, {});
  P.CallSiteCounts = randomWeights(R, 3, 0.0);
  return P;
}

TEST_P(SeededTest, AggregationOfIdenticalProfilesPreservesRatios) {
  Prng R(GetParam());
  Profile P = randomProfile(R, 8);
  if (P.totalBlockCount() <= 0)
    return;
  std::vector<Profile> Copies = {P, P, P};
  Profile Agg = aggregateProfiles(Copies);
  for (size_t B = 0; B < 8; ++B)
    EXPECT_NEAR(Agg.Functions[0].BlockCounts[B],
                3.0 * P.Functions[0].BlockCounts[B], 1e-6);
}

TEST_P(SeededTest, AggregationGivesEqualVotesToEachInput) {
  // A profile scaled by any constant contributes identically.
  Prng R(GetParam());
  Profile P = randomProfile(R, 6);
  if (P.totalBlockCount() <= 0)
    return;
  Profile Q = P;
  double Factor = 1.0 + R.nextDouble() * 20.0;
  for (double &C : Q.Functions[0].BlockCounts)
    C *= Factor;
  Q.Functions[0].EntryCount *= Factor;
  for (double &C : Q.CallSiteCounts)
    C *= Factor;

  Profile AggPP = aggregateProfiles(std::vector<Profile>{P, P});
  Profile AggPQ = aggregateProfiles(std::vector<Profile>{P, Q});
  // Ratios between blocks must be identical in both aggregates.
  const auto &A = AggPP.Functions[0].BlockCounts;
  const auto &B = AggPQ.Functions[0].BlockCounts;
  for (size_t I = 1; I < A.size(); ++I) {
    if (A[0] <= 0 || B[0] <= 0)
      continue;
    EXPECT_NEAR(A[I] / A[0], B[I] / B[0], 1e-9);
  }
}

//===----------------------------------------------------------------------===//
// Markov solution laws on randomized counted programs
//===----------------------------------------------------------------------===//

/// Builds a little program whose shape depends on the seed: nested loops
/// and conditionals with varying counts.
std::string randomProgram(Prng &R) {
  std::string Body;
  unsigned Loops = 1 + R.nextBelow(3);
  for (unsigned L = 0; L < Loops; ++L) {
    std::string I = concat("i", std::to_string(L));
    Body += "  for (int " + I + " = 0; " + I + " < " +
            std::to_string(2 + R.nextBelow(20)) + "; " + I + "++) {\n";
    if (R.nextBelow(2))
      Body += "    if (" + I + " % " + std::to_string(2 + R.nextBelow(5)) +
              " == 0) s += " + I + "; else s -= 1;\n";
    else
      Body += "    s += " + I + ";\n";
  }
  for (unsigned L = 0; L < Loops; ++L)
    Body += "  }\n";
  return "int f() { int s = 0;\n" + Body +
         "  return s; }\nint main() { return f() != -12345; }";
}

TEST_P(SeededTest, MarkovFrequenciesNonNegativeAndConserving) {
  Prng R(GetParam());
  for (int Trial = 0; Trial < 5; ++Trial) {
    auto C = compile(randomProgram(R));
    ASSERT_TRUE(C);
    const Cfg *G = C->cfg("f");
    MarkovIntraResult M = markovBlockFrequencies(*G, MarkovIntraConfig());
    for (const auto &B : G->blocks()) {
      EXPECT_GE(M.BlockFrequencies[B->id()], 0.0);
      // f(b) = entry + inflow.
      double In = B.get() == G->entry() ? 1.0 : 0.0;
      for (const auto &P : G->blocks())
        for (size_t S = 0; S < P->successors().size(); ++S)
          if (P->successors()[S] == B.get())
            In += M.ArcFrequencies[P->id()][S];
      EXPECT_NEAR(In, M.BlockFrequencies[B->id()], 1e-6) << B->label();
    }
    // Total return flow equals the entry flow of 1.
    double ReturnFlow = 0;
    for (const auto &B : G->blocks())
      if (B->terminator() == TerminatorKind::Return)
        ReturnFlow += M.BlockFrequencies[B->id()];
    EXPECT_NEAR(ReturnFlow, 1.0, 1e-6);
  }
}

TEST_P(SeededTest, ActualProfilesSatisfyReturnFlowToo) {
  Prng R(GetParam());
  auto C = compile(randomProgram(R));
  ASSERT_TRUE(C);
  RunResult Res = run(*C);
  const Cfg *G = C->cfg("f");
  const FunctionDecl *F = C->fn("f");
  const FunctionProfile &FP = Res.TheProfile.Functions[F->functionId()];
  double ReturnFlow = 0;
  for (const auto &B : G->blocks())
    if (B->terminator() == TerminatorKind::Return)
      ReturnFlow += FP.BlockCounts[B->id()];
  EXPECT_DOUBLE_EQ(ReturnFlow, FP.EntryCount);
}

//===----------------------------------------------------------------------===//
// Interpreter arithmetic fidelity
//===----------------------------------------------------------------------===//

TEST_P(SeededTest, InterpreterMatchesHostArithmetic) {
  Prng R(GetParam());
  for (int Trial = 0; Trial < 20; ++Trial) {
    int64_t A = R.nextInRange(-1000, 1000);
    int64_t B = R.nextInRange(-1000, 1000);
    if (B == 0)
      B = 7;
    int64_t Expected = (A + B) * 3 - A / B + (A % B) + ((A < B) ? 10 : 20) +
                       ((A ^ B) & 0xFF);
    RunResult Res = compileAndRun(
        "int main() { int a = read_int(); int b = read_int();\n"
        "  return (a + b) * 3 - a / b + (a % b) + ((a < b) ? 10 : 20) +\n"
        "         ((a ^ b) & 0xFF); }",
        std::to_string(A) + " " + std::to_string(B));
    EXPECT_EQ(Res.ExitCode, Expected) << "a=" << A << " b=" << B;
  }
}

TEST_P(SeededTest, InterpreterShiftAndCompoundOpsMatchHost) {
  Prng R(GetParam());
  for (int Trial = 0; Trial < 20; ++Trial) {
    int64_t A = R.nextInRange(0, 100000);
    int64_t S = R.nextInRange(0, 16);
    int64_t Expected = A;
    Expected <<= S;
    Expected >>= (S / 2);
    Expected |= 0x55;
    Expected &= 0xFFFFF;
    RunResult Res = compileAndRun(
        "int main() { int a = read_int(); int s = read_int();\n"
        "  a <<= s; a >>= s / 2; a |= 0x55; a &= 0xFFFFF;\n"
        "  return a; }",
        std::to_string(A) + " " + std::to_string(S));
    EXPECT_EQ(Res.ExitCode, Expected);
  }
}

//===----------------------------------------------------------------------===//
// Frontend robustness
//===----------------------------------------------------------------------===//

TEST_P(SeededTest, ParserNeverCrashesOnGarbage) {
  Prng R(GetParam());
  const char Alphabet[] =
      "abcxyz0123456789 \t\n(){}[];,.*&|^%+-<>=!?:\"'/intcharwhile";
  for (int Trial = 0; Trial < 30; ++Trial) {
    size_t Len = R.nextBelow(200);
    std::string Junk;
    for (size_t I = 0; I < Len; ++I)
      Junk += Alphabet[R.nextBelow(sizeof(Alphabet) - 1)];
    AstContext Ctx;
    DiagnosticEngine Diags;
    // Must terminate without crashing; success or failure both fine.
    (void)parseAndAnalyze(Junk, Ctx, Diags);
  }
}

TEST_P(SeededTest, ParserNeverCrashesOnTruncatedPrograms) {
  Prng R(GetParam());
  const std::string Program =
      "struct node { int v; struct node *next; };\n"
      "int f(int *p, int n) { int s = 0;\n"
      "  while (n > 0) { if (p != NULL && n % 2 == 0) s++; n--; }\n"
      "  switch (s) { case 1: return 1; default: break; }\n"
      "  return s; }\n"
      "int main() { int x; return f(&x, 9); }\n";
  for (int Trial = 0; Trial < 30; ++Trial) {
    size_t Cut = R.nextBelow(Program.size());
    AstContext Ctx;
    DiagnosticEngine Diags;
    (void)parseAndAnalyze(Program.substr(0, Cut), Ctx, Diags);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

} // namespace
