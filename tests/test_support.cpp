//===- tests/test_support.cpp - Support library unit tests -----------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/LinearSystem.h"
#include "support/Prng.h"
#include "support/Scc.h"
#include "support/StringUtils.h"
#include "support/TextTable.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>

using namespace sest;

namespace {

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(Arena, AllocatesAligned) {
  Arena A;
  void *P1 = A.allocate(3, 1);
  void *P2 = A.allocate(8, 8);
  EXPECT_NE(P1, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P2) % 8, 0u);
}

TEST(Arena, RunsNonTrivialDestructors) {
  int Count = 0;
  struct Probe {
    int *Counter;
    explicit Probe(int *C) : Counter(C) {}
    ~Probe() { ++*Counter; }
  };
  {
    Arena A;
    A.create<Probe>(&Count);
    A.create<Probe>(&Count);
    EXPECT_EQ(Count, 0);
  }
  EXPECT_EQ(Count, 2);
}

TEST(Arena, GrowsAcrossSlabs) {
  Arena A;
  for (int I = 0; I < 10000; ++I)
    A.allocate(16, 8);
  EXPECT_GE(A.bytesAllocated(), 160000u);
}

//===----------------------------------------------------------------------===//
// Prng
//===----------------------------------------------------------------------===//

TEST(Prng, DeterministicForSeed) {
  Prng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng A(1), B(2);
  bool AnyDiff = false;
  for (int I = 0; I < 10; ++I)
    if (A.next() != B.next())
      AnyDiff = true;
  EXPECT_TRUE(AnyDiff);
}

TEST(Prng, NextBelowInRange) {
  Prng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(13), 13u);
}

TEST(Prng, NextInRangeInclusive) {
  Prng R(7);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.nextInRange(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    SawLo |= V == -2;
    SawHi |= V == 2;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Prng, DoubleInUnitInterval) {
  Prng R(99);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

//===----------------------------------------------------------------------===//
// Linear solver
//===----------------------------------------------------------------------===//

TEST(LinearSystem, SolvesTwoByTwo) {
  Matrix A(2, 2);
  A.at(0, 0) = 2;
  A.at(0, 1) = 1;
  A.at(1, 0) = 1;
  A.at(1, 1) = 3;
  SolveResult R = solveLinearSystem(A, {5, 10});
  ASSERT_TRUE(R.Solution.has_value());
  EXPECT_NEAR((*R.Solution)[0], 1.0, 1e-9);
  EXPECT_NEAR((*R.Solution)[1], 3.0, 1e-9);
}

TEST(LinearSystem, DetectsSingularity) {
  Matrix A(2, 2);
  A.at(0, 0) = 1;
  A.at(0, 1) = 2;
  A.at(1, 0) = 2;
  A.at(1, 1) = 4;
  SolveResult R = solveLinearSystem(A, {1, 2});
  EXPECT_FALSE(R.Solution.has_value());
  EXPECT_TRUE(R.Singular);
}

TEST(LinearSystem, PivotingHandlesZeroDiagonal) {
  Matrix A(2, 2);
  A.at(0, 0) = 0;
  A.at(0, 1) = 1;
  A.at(1, 0) = 1;
  A.at(1, 1) = 0;
  SolveResult R = solveLinearSystem(A, {3, 4});
  ASSERT_TRUE(R.Solution.has_value());
  EXPECT_NEAR((*R.Solution)[0], 4.0, 1e-9);
  EXPECT_NEAR((*R.Solution)[1], 3.0, 1e-9);
}

TEST(LinearSystem, MatrixMultiplyAndTranspose) {
  Matrix A(2, 3);
  int V = 1;
  for (size_t I = 0; I < 2; ++I)
    for (size_t J = 0; J < 3; ++J)
      A.at(I, J) = V++;
  Matrix At = A.transposed();
  EXPECT_EQ(At.rows(), 3u);
  EXPECT_EQ(At.at(2, 1), 6.0);
  Matrix P = A.multiply(At); // 2x2
  EXPECT_EQ(P.at(0, 0), 1.0 + 4.0 + 9.0);
  EXPECT_EQ(P.at(1, 0), 4.0 + 10.0 + 18.0);
}

/// The paper's Figure 7: strchr's Markov system. States: entry, while,
/// if, return1, incr, return2 with probabilities 0.8/0.2 on the two
/// branches. The published solution is (1, 2.78, 2.22, 0.44, 1.78, 0.56).
TEST(LinearSystem, PaperFigure7Strchr) {
  // Prob.at(i, j) = flow i -> j.
  enum { Entry, While, If, Return1, Incr, Return2 };
  Matrix P(6, 6);
  P.at(Entry, While) = 1.0;
  P.at(While, If) = 0.8;
  P.at(While, Return2) = 0.2;
  P.at(If, Return1) = 0.2;
  P.at(If, Incr) = 0.8;
  P.at(Incr, While) = 1.0;
  std::vector<double> Entries = {1, 0, 0, 0, 0, 0};
  auto F = solveMarkovFrequencies(P, Entries);
  ASSERT_TRUE(F.has_value());
  EXPECT_NEAR((*F)[Entry], 1.0, 1e-9);
  EXPECT_NEAR((*F)[While], 2.7777777, 1e-5);
  EXPECT_NEAR((*F)[If], 2.2222222, 1e-5);
  EXPECT_NEAR((*F)[Return1], 0.4444444, 1e-5);
  EXPECT_NEAR((*F)[Incr], 1.7777777, 1e-5);
  EXPECT_NEAR((*F)[Return2], 0.5555555, 1e-5);
}

TEST(LinearSystem, MarkovSingularOnClosedLoop) {
  // A 1.0-probability self-cycle has no finite frequency solution.
  Matrix P(2, 2);
  P.at(0, 1) = 1.0;
  P.at(1, 0) = 1.0;
  auto F = solveMarkovFrequencies(P, {1, 0});
  EXPECT_FALSE(F.has_value());
}

//===----------------------------------------------------------------------===//
// SCC
//===----------------------------------------------------------------------===//

TEST(Scc, SinglesAndCycle) {
  // 0 -> 1 -> 2 -> 1, 2 -> 3.
  std::vector<std::vector<size_t>> Succ = {{1}, {2}, {1, 3}, {}};
  SccResult R = computeScc(4, Succ);
  EXPECT_EQ(R.Components.size(), 3u);
  EXPECT_EQ(R.ComponentOf[1], R.ComponentOf[2]);
  EXPECT_NE(R.ComponentOf[0], R.ComponentOf[1]);
  EXPECT_TRUE(R.inNontrivialComponent(1));
  EXPECT_FALSE(R.inNontrivialComponent(0));
  EXPECT_FALSE(R.inNontrivialComponent(3));
}

TEST(Scc, ReverseTopologicalOrder) {
  // 0 -> 1 -> 2 (no cycles): components come callee-first.
  std::vector<std::vector<size_t>> Succ = {{1}, {2}, {}};
  SccResult R = computeScc(3, Succ);
  ASSERT_EQ(R.Components.size(), 3u);
  EXPECT_EQ(R.Components[0][0], 2u);
  EXPECT_EQ(R.Components[2][0], 0u);
}

TEST(Scc, WholeGraphOneComponent) {
  std::vector<std::vector<size_t>> Succ = {{1}, {2}, {0}};
  SccResult R = computeScc(3, Succ);
  EXPECT_EQ(R.Components.size(), 1u);
  EXPECT_EQ(R.Components[0].size(), 3u);
}

TEST(Scc, SelfLoopIsTrivialComponentBySize) {
  std::vector<std::vector<size_t>> Succ = {{0}};
  SccResult R = computeScc(1, Succ);
  EXPECT_EQ(R.Components.size(), 1u);
  // Size-1 component: self-arcs must be checked by the caller.
  EXPECT_FALSE(R.inNontrivialComponent(0));
}

TEST(Scc, LargeChainDoesNotOverflowStack) {
  // 100k-node chain: iterative Tarjan must not recurse.
  const size_t N = 100000;
  std::vector<std::vector<size_t>> Succ(N);
  for (size_t I = 0; I + 1 < N; ++I)
    Succ[I].push_back(I + 1);
  SccResult R = computeScc(N, Succ);
  EXPECT_EQ(R.Components.size(), N);
}

//===----------------------------------------------------------------------===//
// Strings and tables
//===----------------------------------------------------------------------===//

TEST(StringUtils, FormatDouble) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(formatDouble(2.0, 0), "2");
}

TEST(StringUtils, FormatPercent) {
  EXPECT_EQ(formatPercent(0.813), "81.3%");
  EXPECT_EQ(formatPercent(1.0, 0), "100%");
}

TEST(StringUtils, PadAndSplitAndJoin) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcde", 3), "abcde");
  auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(joinStrings({"x", "y", "z"}, ", "), "x, y, z");
}

TEST(TextTable, AlignsColumns) {
  TextTable T;
  T.setHeader({"name", "score"});
  T.addRow({"alpha", "81.3%"});
  T.addRow({"b", "7%"});
  std::string S = T.str();
  EXPECT_NE(S.find("name"), std::string::npos);
  EXPECT_NE(S.find("alpha"), std::string::npos);
  // Numeric-looking cells right-align: "7%" ends at same column as "81.3%".
  auto Lines = splitString(S, '\n');
  ASSERT_GE(Lines.size(), 4u);
  EXPECT_EQ(Lines[2].size(), Lines[3].size());
}

TEST(TextTable, CsvOutput) {
  TextTable T;
  T.setHeader({"a", "b"});
  T.addRow({"1", "2"});
  EXPECT_EQ(T.csv(), "a,b\n1,2\n");
}

//===----------------------------------------------------------------------===//
// Content hashing (support/Hash.h)
//===----------------------------------------------------------------------===//

// The hash is a STABLE identity: it keys the analysis service's
// memoization cache and appears as program_hash in checked-in report
// baselines, so these published FNV-1a 64 test vectors pin the exact
// algorithm forever. If any of these "fail", the constant changed — fix
// the code, never the vectors.
TEST(ContentHash, Fnv1a64TestVectors) {
  EXPECT_EQ(contentHash64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(contentHash64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(contentHash64("foobar"), 0x85944171f73967e8ULL);
}

TEST(ContentHash, HexRenderingIsZeroPaddedLowercase) {
  EXPECT_EQ(hashHex(0xcbf29ce484222325ULL), "cbf29ce484222325");
  EXPECT_EQ(hashHex(0x1ULL), "0000000000000001");
  EXPECT_EQ(hashHex(0x0ULL), "0000000000000000");
}

TEST(ContentHash, OneTokenEditChangesHash) {
  EXPECT_NE(contentHash64("for (i = 0; i < n; i++)"),
            contentHash64("for (i = 0; i <= n; i++)"));
}

TEST(HashBuilder, LengthFramingPreventsFieldAliasing) {
  // ("ab","c") and ("a","bc") concatenate identically; the length
  // framing must still separate them.
  EXPECT_NE(HashBuilder().add("ab").add("c").digest(),
            HashBuilder().add("a").add("bc").digest());
}

TEST(HashBuilder, DomainsAndScalarsSeparateKeys) {
  EXPECT_NE(HashBuilder("ast").add("x").digest(),
            HashBuilder("cfg").add("x").digest());
  EXPECT_NE(HashBuilder().addU64(1).digest(),
            HashBuilder().addU64(2).digest());
  EXPECT_NE(HashBuilder().addDouble(5.0).digest(),
            HashBuilder().addDouble(10.0).digest());
  EXPECT_NE(HashBuilder().addBool(true).digest(),
            HashBuilder().addBool(false).digest());
  // Equal inputs agree, of course.
  EXPECT_EQ(HashBuilder("t").add("s").addU64(7).digest(),
            HashBuilder("t").add("s").addU64(7).digest());
}

//===----------------------------------------------------------------------===//
// JSON string decoding
//===----------------------------------------------------------------------===//

// The reader copies a string's unescaped runs in one append each; these
// pin the decoded bytes at the run boundaries.

/// Decodes the JSON string literal \p Literal (quotes included).
std::optional<std::string> decodeString(const std::string &Literal) {
  std::optional<JsonValue> V = parseJson(Literal);
  if (!V)
    return std::nullopt;
  EXPECT_TRUE(V->isString());
  return V->StringVal;
}

TEST(JsonString, EscapesAtTheEdgesAndBackToBack) {
  EXPECT_EQ(decodeString(R"("\nabc")"), "\nabc");
  EXPECT_EQ(decodeString(R"("abc\t")"), "abc\t");
  EXPECT_EQ(decodeString(R"("\"")"), "\"");
  EXPECT_EQ(decodeString(R"("a\\\"\/\b\f\n\r\tz")"),
            "a\\\"/\b\f\n\r\tz");
  EXPECT_EQ(decodeString(R"("\\")"), "\\");
  EXPECT_EQ(decodeString(R"("")"), "");
  EXPECT_EQ(decodeString(R"("x\qy")"), std::nullopt);
}

TEST(JsonString, UnicodeEscapesEncodeUtf8) {
  EXPECT_EQ(decodeString(R"("\u0041\u00e9\u20AC")"),
            "A\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(decodeString(R"("x\u0000y")"), std::string("x\0y", 3));
  EXPECT_EQ(decodeString(R"("\u00g1")"), std::nullopt);
  EXPECT_EQ(decodeString(R"("\u12")"), std::nullopt);
}

TEST(JsonString, RawControlCharactersStayAccepted) {
  EXPECT_EQ(decodeString("\"a\x01\tb\x1f\""), "a\x01\tb\x1f");
}

TEST(JsonString, LongRunsDecodeWhole) {
  const std::string Run(1u << 20, 'x');
  EXPECT_EQ(decodeString("\"" + Run + "\""), Run);
  EXPECT_EQ(decodeString("\"" + Run + "\\n" + Run + "\""),
            Run + "\n" + Run);
  // Unterminated after a long run, with or without a dangling escape.
  EXPECT_EQ(decodeString("\"" + Run), std::nullopt);
  EXPECT_EQ(decodeString("\"" + Run + "\\"), std::nullopt);
  EXPECT_EQ(decodeString("\"" + Run + "\\\""), std::nullopt);
}

TEST(JsonString, ManyStringsParseInLinearTime) {
  // A million empty strings: the scan for a backslash must stop at each
  // string's closing quote. Scanning on to the end of the document
  // instead would take about 2e12 byte steps here, far past the time
  // limit tests/CMakeLists.txt sets.
  constexpr size_t N = 1u << 20;
  std::string Doc = "[";
  Doc.reserve(4 * N + 1);
  for (size_t I = 0; I < N; ++I)
    Doc += I ? ", \"\"" : "\"\"";
  Doc += "]";
  std::optional<JsonValue> V = parseJson(Doc);
  ASSERT_TRUE(V && V->isArray());
  ASSERT_EQ(V->Items.size(), N);
  EXPECT_TRUE(V->Items.back().isString());
  EXPECT_EQ(V->Items.back().StringVal, "");
}

} // namespace
