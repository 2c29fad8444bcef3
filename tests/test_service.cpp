//===- tests/test_service.cpp - Analysis service unit tests ----------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cache-correctness edge cases for the sestd analysis service
/// (src/service/): the sharded LRU tiers and the source intern table in
/// isolation, key separation (a one-token source edit misses every tier;
/// identical source under different options never collides; two sources
/// with equal FNV-1a-64 get their own answers), and the determinism
/// contract — responses byte-identical cold vs warm, under eviction
/// churn, and across --jobs values. The key-separation and determinism
/// tests run twice: once more with every digest equal.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "backend/Native.h"
#include "obs/EventLog.h"
#include "obs/Export.h"
#include "obs/Telemetry.h"
#include "service/Cache.h"
#include "service/Service.h"
#include "suite/Suite.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

using namespace sest;
using namespace sest::service;

namespace {

//===----------------------------------------------------------------------===//
// ShardedCache
//===----------------------------------------------------------------------===//

std::shared_ptr<const void> box(int V) {
  return std::make_shared<int>(V);
}

/// A key that names no source: \p V framed as its only field.
CacheKey key(uint64_t V) {
  static InternTable Fields;
  return {nullptr, Fields.intern(HashBuilder().addU64(V).take())};
}

TEST(ShardedCache, HitAfterPutAndMissCounters) {
  ShardedCache C("t", 1024, 1);
  EXPECT_EQ(C.get(key(1)), nullptr);
  C.put(key(1), box(41), 100);
  auto V = C.getAs<int>(key(1));
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(*V, 41);
  CacheTierStats S = C.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Bytes, 100u);
}

TEST(ShardedCache, DuplicatePutKeepsResidentValue) {
  ShardedCache C("t", 1024, 1);
  C.put(key(1), box(1), 100);
  C.put(key(1), box(2), 100); // deterministic artifacts: first insert wins
  EXPECT_EQ(*C.getAs<int>(key(1)), 1);
  EXPECT_EQ(C.stats().Bytes, 100u);
  EXPECT_EQ(C.stats().Entries, 1u);
}

TEST(ShardedCache, EvictsLeastRecentlyUsedWithinBudget) {
  ShardedCache C("t", 300, 1);
  C.put(key(1), box(1), 100);
  C.put(key(2), box(2), 100);
  C.put(key(3), box(3), 100);
  ASSERT_NE(C.get(key(1)), nullptr); // 1 is now most recent
  C.put(key(4), box(4), 100);        // evicts 2, the least recent
  EXPECT_EQ(C.get(key(2)), nullptr);
  EXPECT_NE(C.get(key(1)), nullptr);
  EXPECT_NE(C.get(key(3)), nullptr);
  EXPECT_NE(C.get(key(4)), nullptr);
  EXPECT_EQ(C.stats().Evictions, 1u);
  EXPECT_LE(C.stats().Bytes, 300u);
}

TEST(ShardedCache, EvictedValueSurvivesWhileHeld) {
  ShardedCache C("t", 100, 1);
  C.put(key(1), box(7), 100);
  auto Held = C.getAs<int>(key(1));
  C.put(key(2), box(8), 100); // evicts key 1
  EXPECT_EQ(C.get(key(1)), nullptr);
  ASSERT_NE(Held, nullptr); // the holder keeps the artifact alive
  EXPECT_EQ(*Held, 7);
}

TEST(ShardedCache, OversizedValueIsNotAdmitted) {
  ShardedCache C("t", 100, 1);
  C.put(key(1), box(1), 101);
  EXPECT_EQ(C.get(key(1)), nullptr);
  EXPECT_EQ(C.stats().Entries, 0u);
}

TEST(ShardedCache, ZeroBudgetDisablesCaching) {
  ShardedCache C("t", 0, 4);
  C.put(key(1), box(1), 0); // even zero-byte values are refused
  EXPECT_EQ(C.get(key(1)), nullptr);
  EXPECT_EQ(C.stats().Entries, 0u);
}

TEST(ShardedCache, ClearDropsEntriesButKeepsCounters) {
  ShardedCache C("t", 1024, 2);
  C.put(key(1), box(1), 10);
  C.put(key(2), box(2), 10);
  ASSERT_NE(C.get(key(1)), nullptr);
  C.clear();
  EXPECT_EQ(C.stats().Entries, 0u);
  EXPECT_EQ(C.stats().Bytes, 0u);
  EXPECT_EQ(C.stats().Hits, 1u); // counters keep counting
  EXPECT_EQ(C.get(key(2)), nullptr);
}

//===----------------------------------------------------------------------===//
// Source interning
//===----------------------------------------------------------------------===//

/// Makes wordHash64 one constant while alive: every intern lookup and
/// every tier key then shares one bucket of one shard, and only the
/// confirmed key material tells programs apart.
struct DegenerateDigests {
  DegenerateDigests() { setDegenerateWordHashForTesting(true); }
  ~DegenerateDigests() { setDegenerateWordHashForTesting(false); }
};

/// Registers a test twice: as Service.<Name>, and as
/// ServiceDegenerateDigest.<Name> with every digest equal.
#define TEST_BOTH_DIGESTS(Name)                                               \
  void Name##Body();                                                          \
  TEST(Service, Name) { Name##Body(); }                                       \
  TEST(ServiceDegenerateDigest, Name) {                                       \
    DegenerateDigests On;                                                     \
    Name##Body();                                                             \
  }                                                                           \
  void Name##Body()

// Two sources with equal FNV-1a-64 (5b85016c4677ab4d). They come from a
// parallel rho search that stays out of the test suite: walk x -> the
// FNV-1a state after `int main() { print_str("` + hex16(x), keep the
// distinguished points (states with their low 28 bits zero), and rewalk
// two walks that reach the same point to the step where they merge.
// FNV-1a carries an equal state through an equal suffix, so the shared
// `"); return 0; }\n` keeps the collision.
const char *FnvTwinA =
    "int main() { print_str(\"f3d5e436c931ac0c\"); return 0; }\n";
const char *FnvTwinB =
    "int main() { print_str(\"e404f0b4b34bd45d\"); return 0; }\n";

TEST(InternTable, InternsOneLiveEntryPerByteString) {
  for (bool Degenerate : {false, true}) {
    std::optional<DegenerateDigests> On;
    if (Degenerate)
      On.emplace();
    InternTable T(4, /*Digests=*/true);
    InternRef A = T.intern(FnvTwinA);
    InternRef A2 = T.intern(FnvTwinA);
    InternRef B = T.intern(FnvTwinB);
    EXPECT_EQ(A, A2);
    EXPECT_NE(A, B);
    EXPECT_EQ(A->Bytes, FnvTwinA);
    EXPECT_EQ(B->Bytes, FnvTwinB);
    EXPECT_EQ(A->ContentHash, contentHash64(FnvTwinA));
    EXPECT_EQ(A->ContentHash, B->ContentHash);
    EXPECT_EQ(A->WordHash == B->WordHash, Degenerate);
    EXPECT_EQ(T.size(), 2u);
    EXPECT_EQ(T.bytes(), A->Bytes.size() + B->Bytes.size());
    EXPECT_EQ(T.created(), 2u);
    // An entry leaves the table with its last holder.
    A.reset();
    EXPECT_EQ(T.size(), 2u);
    A2.reset();
    EXPECT_EQ(T.size(), 1u);
    B.reset();
    EXPECT_EQ(T.size(), 0u);
  }
}

//===----------------------------------------------------------------------===//
// Service cache correctness
//===----------------------------------------------------------------------===//

// A program with a loop, a branch, and a call — touches every tier.
const char *SourceA =
    "int triangle(int n) { int s = 0; int i; "
    "for (i = 1; i <= n; i++) s += i; return s; } "
    "int main() { int n = read_int(); print_int(triangle(n)); "
    "return 0; }";
// One token differs from SourceA: `i <= n` became `i < n`.
const char *SourceB =
    "int triangle(int n) { int s = 0; int i; "
    "for (i = 1; i < n; i++) s += i; return s; } "
    "int main() { int n = read_int(); print_int(triangle(n)); "
    "return 0; }";

std::string estimateRequest(const char *Source,
                            const std::string &OptionsJson = "",
                            bool Blocks = false) {
  std::string R = "{\"op\":\"estimate\",\"source\":\"";
  R += jsonEscape(Source);
  R += "\"";
  if (Blocks)
    R += ",\"blocks\":true";
  if (!OptionsJson.empty())
    R += ",\"options\":" + OptionsJson;
  R += "}";
  return R;
}

std::string optimizeRequest(const char *Source) {
  return std::string("{\"op\":\"optimize\",\"source\":\"") +
         jsonEscape(Source) + "\",\"passes\":\"all\"}";
}

TEST_BOTH_DIGESTS(OneTokenEditMissesEveryTier) {
  Service S;
  // optimize walks every tier except native (ast, cfg, branch, solve,
  // response); only engine:"native" reports touch that one.
  EXPECT_TRUE(S.handle(optimizeRequest(SourceA)).find("\"ok\":true") !=
              std::string::npos);
  // Every tier now holds SourceA's artifacts. The edited program must
  // hit NONE of them: each tier's miss counter advances.
  std::vector<CacheTierStats> Before;
  for (const ShardedCache *C : S.caches().all())
    Before.push_back(C->stats());
  EXPECT_TRUE(S.handle(optimizeRequest(SourceB)).find("\"ok\":true") !=
              std::string::npos);
  size_t I = 0;
  for (const ShardedCache *C : S.caches().all()) {
    if (C->tier() == "native") {
      ++I;
      continue;
    }
    CacheTierStats After = C->stats();
    EXPECT_GT(After.Misses, Before[I].Misses)
        << "tier '" << C->tier()
        << "' served a stale artifact for an edited program";
    EXPECT_EQ(After.Hits, Before[I].Hits)
        << "tier '" << C->tier()
        << "' hit on a program it never saw";
    ++I;
  }
}

TEST_BOTH_DIGESTS(DifferentOptionsDoNotCollide) {
  Service S;
  std::string R1 = S.handle(estimateRequest(SourceA, "", /*Blocks=*/true));
  // Same source, very different loop count: the block estimates must
  // change, which they cannot if the solve tier collides the two keys.
  std::string R2 = S.handle(estimateRequest(
      SourceA, "{\"loop_iterations\":100}", /*Blocks=*/true));
  EXPECT_NE(R1, R2);
  // Distinct entries for both configurations in the options-keyed
  // tiers; the source-keyed tiers (ast, cfg) are shared.
  EXPECT_EQ(S.caches().Solve.stats().Entries, 2u);
  EXPECT_EQ(S.caches().Branch.stats().Entries, 2u);
  EXPECT_EQ(S.caches().Ast.stats().Entries, 1u);
  EXPECT_EQ(S.caches().Cfg.stats().Entries, 1u);
  // And an option that only affects the inter-procedural stage shares
  // the branch tier but not the solve tier.
  S.handle(estimateRequest(SourceA, "{\"inter\":\"direct\"}"));
  EXPECT_EQ(S.caches().Solve.stats().Entries, 3u);
  EXPECT_EQ(S.caches().Branch.stats().Entries, 2u);
}

TEST_BOTH_DIGESTS(WarmResponsesAreByteIdentical) {
  Service S;
  std::vector<std::string> Requests = {
      std::string("{\"id\":1,\"op\":\"parse\",\"source\":\"") +
          jsonEscape(SourceA) + "\"}",
      estimateRequest(SourceA),
      estimateRequest(SourceA, "{\"intra\":\"markov\"}"),
      std::string("{\"op\":\"optimize\",\"source\":\"") +
          jsonEscape(SourceA) + "\",\"passes\":\"all\"}",
      std::string("{\"op\":\"report\",\"source\":\"") +
          jsonEscape(SourceA) + "\",\"input\":\"12\"}",
  };
  std::vector<std::string> Cold = S.handleBatch(Requests);
  std::vector<CacheTierStats> Before;
  for (const ShardedCache *C : S.caches().all())
    Before.push_back(C->stats());
  std::vector<std::string> Warm = S.handleBatch(Requests);
  ASSERT_EQ(Cold.size(), Warm.size());
  for (size_t I = 0; I < Cold.size(); ++I) {
    EXPECT_TRUE(Cold[I].find("\"ok\":true") != std::string::npos)
        << Cold[I];
    EXPECT_EQ(Cold[I], Warm[I]) << "request " << I;
  }
  // The warm pass built nothing: every request was one response hit,
  // and no tier missed.
  size_t I = 0;
  for (const ShardedCache *C : S.caches().all()) {
    CacheTierStats After = C->stats();
    EXPECT_EQ(After.Misses, Before[I].Misses) << "tier " << C->tier();
    EXPECT_EQ(After.Hits - Before[I].Hits,
              C->tier() == "response" ? Requests.size() : 0u)
        << "tier " << C->tier();
    ++I;
  }
}

/// A field its op does not read is not part of the response key: a
/// repeat that adds one is a response hit and builds nothing.
TEST_BOTH_DIGESTS(IgnoredFieldsShareTheResponseEntry) {
  const std::string Src = jsonEscape(SourceA);
  const std::pair<std::string, std::vector<const char *>> Cases[] = {
      {"{\"op\":\"optimize\",\"source\":\"" + Src + "\",\"passes\":\"all\"",
       {",\"seed\":5", ",\"blocks\":true", ",\"input\":\"3\""}},
      {"{\"op\":\"tune\",\"source\":\"" + Src +
           "\",\"input\":\"12\",\"budget\":2",
       {",\"blocks\":true", ",\"passes\":\"layout\"",
        ",\"options\":{\"intra\":\"markov\"}"}},
  };
  for (const auto &[Base, Extras] : Cases) {
    Service S;
    std::string Cold = S.handle(Base + "}");
    EXPECT_NE(Cold.find("\"ok\":true"), std::string::npos) << Cold;
    for (const char *Extra : Extras) {
      std::vector<CacheTierStats> Before;
      for (const ShardedCache *C : S.caches().all())
        Before.push_back(C->stats());
      EXPECT_EQ(S.handle(Base + Extra + "}"), Cold) << Extra;
      size_t I = 0;
      for (const ShardedCache *C : S.caches().all()) {
        CacheTierStats After = C->stats();
        EXPECT_EQ(After.Misses, Before[I].Misses)
            << Extra << ": tier " << C->tier();
        uint64_t Hits = C->tier() == "response" ? 1 : 0;
        EXPECT_EQ(After.Hits, Before[I].Hits + Hits)
            << Extra << ": tier " << C->tier();
        ++I;
      }
    }
  }
}

/// The `tune` verb: cold, warm, and across job counts the report must
/// be byte-identical, and a warm replay is one response hit.
TEST_BOTH_DIGESTS(TuneVerbIsByteIdenticalColdWarmAndAcrossJobs) {
  std::string Req = std::string("{\"op\":\"tune\",\"source\":\"") +
                    jsonEscape(SourceA) +
                    "\",\"input\":\"12\",\"budget\":3}";
  Service S;
  std::string Cold = S.handle(Req);
  EXPECT_NE(Cold.find("\"ok\":true"), std::string::npos) << Cold;
  EXPECT_NE(Cold.find("sest-tune-report/1"), std::string::npos);
  CacheTierStats Before = S.caches().Response.stats();
  std::string Warm = S.handle(Req);
  EXPECT_EQ(Cold, Warm);
  // Warm was served from the response tier, not recomputed.
  EXPECT_EQ(S.caches().Response.stats().Hits, Before.Hits + 1);
  EXPECT_EQ(S.caches().Response.stats().Misses, Before.Misses);

  ServiceOptions O8;
  O8.Jobs = 8;
  Service S8(O8);
  EXPECT_EQ(S8.handle(Req), Cold);

  // Unknown oracles and a native engine are rejected cleanly.
  EXPECT_NE(S.handle(std::string("{\"op\":\"tune\",\"source\":\"") +
                     jsonEscape(SourceA) + "\",\"oracles\":\"bogus\"}")
                .find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(S.handle(std::string("{\"op\":\"tune\",\"source\":\"") +
                     jsonEscape(SourceA) + "\",\"engine\":\"native\"}")
                .find("\"ok\":false"),
            std::string::npos);
}

std::string reportRequest(const char *Source, const std::string &Engine) {
  std::string R = std::string("{\"op\":\"report\",\"source\":\"") +
                  jsonEscape(Source) + "\",\"input\":\"12\"";
  if (!Engine.empty())
    R += ",\"engine\":\"" + Engine + "\"";
  R += "}";
  return R;
}

/// engine:"bytecode" must produce the identical report to the default
/// ast engine — the engines are bit-identical — differing only in the
/// echoed engine field, and the two must not alias one response entry.
TEST_BOTH_DIGESTS(ReportEngineBytecodeMatchesAstModuloEcho) {
  Service S;
  std::string Ast = S.handle(reportRequest(SourceA, ""));
  std::string Bc = S.handle(reportRequest(SourceA, "bytecode"));
  EXPECT_NE(Ast, Bc); // distinct cache keys, distinct echo
  size_t Pos = Bc.find("\"engine\":\"bytecode\"");
  ASSERT_NE(Pos, std::string::npos) << Bc;
  EXPECT_EQ(Ast, Bc.replace(Pos, 19, "\"engine\":\"ast\""));
  // An explicit engine:"ast" is the same semantic request as the
  // default and must be served from the response tier.
  uint64_t Hits = S.caches().Response.stats().Hits;
  EXPECT_EQ(Ast, S.handle(reportRequest(SourceA, "ast")));
  EXPECT_GT(S.caches().Response.stats().Hits, Hits);
}

TEST(Service, ReportEngineNativeUsesArtifactTier) {
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why))
    GTEST_SKIP() << "native tier unavailable: " << Why;
  Service S;
  std::string Ast = S.handle(reportRequest(SourceA, ""));
  std::string Native = S.handle(reportRequest(SourceA, "native"));
  std::string Normalized = Native;
  size_t Pos = Normalized.find("\"engine\":\"native\"");
  ASSERT_NE(Pos, std::string::npos) << Native;
  EXPECT_EQ(Ast, Normalized.replace(Pos, 17, "\"engine\":\"ast\""));
  // The artifact landed in the native tier, and a repeat serves it (and
  // the whole response) warm and byte-identically.
  EXPECT_EQ(S.caches().Native.stats().Entries, 1u);
  EXPECT_EQ(S.caches().Native.stats().Misses, 1u);
  EXPECT_EQ(Native, S.handle(reportRequest(SourceA, "native")));
  EXPECT_GT(S.caches().Response.stats().Hits, 0u);
}

TEST(Service, ReportRejectsUnknownEngine) {
  Service S;
  std::string R = S.handle(reportRequest(SourceA, "jit"));
  EXPECT_NE(R.find("\"ok\":false"), std::string::npos) << R;
  EXPECT_NE(R.find("engine must be"), std::string::npos) << R;
}

TEST_BOTH_DIGESTS(EvictionChurnCannotChangeResponses) {
  // Budget so small the tiers evict constantly (but still admit one
  // entry at a time); alternate two programs so every request evicts
  // the other's artifacts.
  ServiceOptions Tiny;
  Tiny.CacheBudgetBytes = 6 * 16 * 1024; // ~16 KiB per tier
  Tiny.CacheShards = 1;
  Service Churn(Tiny);
  Service Roomy; // default budget: no eviction
  for (int Round = 0; Round < 3; ++Round)
    for (const char *Src : {SourceA, SourceB}) {
      std::string Req = estimateRequest(Src);
      EXPECT_EQ(Churn.handle(Req), Roomy.handle(Req));
    }
}

TEST_BOTH_DIGESTS(DisabledCacheMatchesEnabledCache) {
  ServiceOptions Off;
  Off.CacheBudgetBytes = 0;
  Service NoCache(Off);
  Service Cached;
  for (int Round = 0; Round < 2; ++Round)
    for (const char *Src : {SourceA, SourceB}) {
      std::string Req = estimateRequest(Src);
      EXPECT_EQ(NoCache.handle(Req), Cached.handle(Req));
    }
  uint64_t Entries = 0;
  for (const ShardedCache *C : NoCache.caches().all())
    Entries += C->stats().Entries;
  EXPECT_EQ(Entries, 0u);
}

TEST_BOTH_DIGESTS(JobsOneAndEightAreByteIdentical) {
  // A batch of distinct + repeated requests, executed serially and on
  // eight workers: responses must match byte for byte, in order.
  std::vector<std::string> Requests;
  for (int I = 0; I < 24; ++I) {
    const char *Src = I % 2 ? SourceA : SourceB;
    switch (I % 4) {
    case 0:
      Requests.push_back(estimateRequest(Src));
      break;
    case 1:
      Requests.push_back(estimateRequest(Src, "{\"intra\":\"markov\"}"));
      break;
    case 2:
      Requests.push_back(std::string("{\"op\":\"parse\",\"source\":\"") +
                         jsonEscape(Src) + "\"}");
      break;
    default:
      Requests.push_back(
          std::string("{\"op\":\"optimize\",\"source\":\"") +
          jsonEscape(Src) + "\"}");
      break;
    }
  }
  ServiceOptions J1, J8;
  J1.Jobs = 1;
  J8.Jobs = 8;
  Service S1(J1), S8(J8);
  std::vector<std::string> Out1 = S1.handleBatch(Requests);
  std::vector<std::string> Out8 = S8.handleBatch(Requests);
  ASSERT_EQ(Out1.size(), Out8.size());
  for (size_t I = 0; I < Out1.size(); ++I)
    EXPECT_EQ(Out1[I], Out8[I]) << "request " << I;
}

TEST(Service, MalformedRequestsFailCleanly) {
  Service S;
  EXPECT_NE(S.handle("not json").find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(S.handle("{\"op\":\"frobnicate\"}").find("unknown op"),
            std::string::npos);
  EXPECT_NE(S.handle("{\"op\":\"estimate\"}").find("'source'"),
            std::string::npos);
  EXPECT_NE(S.handle(estimateRequest(SourceA, "{\"bogus\":1}"))
                .find("unknown option"),
            std::string::npos);
  // A program that does not parse is an ok:false response with the
  // diagnostics — and it is cached like any other deterministic answer.
  std::string Bad = S.handle(estimateRequest("int main( {"));
  EXPECT_NE(Bad.find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(S.handle(estimateRequest("int main( {")), Bad);
  // Integer fields are range-checked, never cast blindly: "budget":1e12
  // would otherwise be served as budget 3567587328.
  auto Tune = [](const std::string &Field) {
    return std::string("{\"op\":\"tune\",\"source\":\"") +
           jsonEscape(SourceA) + "\",\"input\":\"12\"," + Field + "}";
  };
  for (const char *Field :
       {"\"budget\":1e12", "\"budget\":4294967296", "\"budget\":0",
        "\"budget\":2.5", "\"budget\":\"8\"", "\"seed\":-1",
        "\"seed\":0.5", "\"seed\":18446744073709551616", "\"seed\":\"1\""}) {
    std::string Resp = S.handle(Tune(Field));
    EXPECT_NE(Resp.find("\"ok\":false"), std::string::npos) << Field;
    EXPECT_NE(Resp.find("must be an integer in"), std::string::npos)
        << Field << ": " << Resp;
  }
  // The largest seed below 2^64 is still served.
  EXPECT_NE(S.handle(std::string("{\"op\":\"report\",\"source\":\"") +
                     jsonEscape(SourceA) +
                     "\",\"input\":\"12\",\"seed\":18446744073709549568}")
                .find("\"ok\":true"),
            std::string::npos);
  // A known field of the wrong JSON type, or an unknown field, is an
  // error naming the field, never a request served as if it were absent.
  auto Estimate = [](const std::string &Fields) {
    return std::string("{\"op\":\"estimate\",\"source\":\"") +
           jsonEscape(SourceA) + "\"," + Fields + "}";
  };
  const std::pair<std::string, std::string> Typed[] = {
      {Estimate("\"blocks\":1"), "'blocks' must be a boolean"},
      {Estimate("\"blocks\":\"yes\""), "'blocks' must be a boolean"},
      {Estimate("\"passes\":5"), "'passes' must be a string"},
      {Estimate("\"input\":7"), "'input' must be a string"},
      {Estimate("\"engine\":true"), "'engine' must be a string"},
      {Estimate("\"options\":[]"), "'options' must be an object"},
      {Estimate("\"options\":{\"constant_loop_bounds\":\"no\"}"),
       "option 'constant_loop_bounds' must be a boolean"},
      {Estimate("\"options\":{\"intra\":5}"),
       "option 'intra' must be a string"},
      {Estimate("\"options\":{\"taken_probability\":\"0.5\"}"),
       "taken_probability must be a number"},
      {Estimate("\"id\":\"a\""), "'id' must be a number"},
      {Estimate("\"bogus\":1"), "unknown field 'bogus'"},
      {"{\"op\":5}", "'op' must be a string"},
      {"{\"op\":\"stats\",\"verbose\":true}", "unknown field 'verbose'"},
      {"{\"op\":\"metrics\",\"scope\":1}", "'scope' must be a string"},
      {"{\"op\":\"health\",\"seed\":\"1\"}", "must be an integer in"},
  };
  for (const auto &[Req, Error] : Typed) {
    std::string Resp = S.handle(Req);
    EXPECT_NE(Resp.find("\"ok\":false"), std::string::npos) << Req;
    EXPECT_NE(Resp.find(Error), std::string::npos) << Req << ": " << Resp;
  }
  // The error envelope still echoes a numeric id.
  EXPECT_NE(S.handle(Estimate("\"id\":9,\"blocks\":1")).find("\"id\":9"),
            std::string::npos);
}

/// INT64_MIN / -1 and INT64_MIN % -1 trap in the host's integer divide.
/// Constant folding (which branch prediction runs) declines the pair and
/// every engine wraps them like + - *, so the service answers both ops
/// in band and is still up for the next request.
TEST(Service, Int64MinByMinusOneIsAnsweredInBand) {
  Service S;
  for (const auto &[Op, Exit] : {std::pair<const char *, int>{"/", 1},
                                 std::pair<const char *, int>{"%", 0}}) {
    std::string Src =
        std::string("int main() { if (((-9223372036854775807 - 1) ") + Op +
        " -1) < 0) return 1; return 0; }";
    std::string Est = S.handle(estimateRequest(Src.c_str()));
    EXPECT_NE(Est.find("\"ok\":true"), std::string::npos) << Op << Est;
    std::string Rep = S.handle(reportRequest(Src.c_str(), ""));
    EXPECT_NE(Rep.find("\"ok\":true"), std::string::npos) << Op << Rep;
    EXPECT_NE(Rep.find("\"exit_code\":" + std::to_string(Exit)),
              std::string::npos)
        << Op << Rep;
  }
  EXPECT_NE(S.handle("{\"op\":\"health\"}").find("sest-service-health/1"),
            std::string::npos);
}

TEST_BOTH_DIGESTS(ProgramHashIsSourceIdentity) {
  Service S;
  std::string RespA = S.handle(estimateRequest(SourceA));
  std::string RespB = S.handle(estimateRequest(SourceB));
  auto HashOf = [](const std::string &Resp) {
    size_t At = Resp.find("\"program_hash\":\"");
    EXPECT_NE(At, std::string::npos) << Resp;
    return Resp.substr(At + 16, 16);
  };
  EXPECT_NE(HashOf(RespA), HashOf(RespB));
  // Same source under different options: same identity.
  EXPECT_EQ(HashOf(RespA),
            HashOf(S.handle(
                estimateRequest(SourceA, "{\"inter\":\"direct\"}"))));
}

TEST(Service, ShutdownAndStats) {
  Service S;
  S.handle(estimateRequest(SourceA));
  S.handle(estimateRequest(SourceA));
  std::string Stats = S.handle("{\"op\":\"stats\"}");
  EXPECT_NE(Stats.find("sest-service-stats/1"), std::string::npos);
  EXPECT_NE(Stats.find("\"response\":{\"hit\":1"), std::string::npos)
      << Stats;
  EXPECT_FALSE(S.shutdownRequested());
  EXPECT_NE(S.handle("{\"op\":\"shutdown\"}").find("\"shutting_down\":true"),
            std::string::npos);
  EXPECT_TRUE(S.shutdownRequested());
}

std::string parseRequestLine(const char *Source) {
  return std::string("{\"op\":\"parse\",\"source\":\"") +
         jsonEscape(Source) + "\"}";
}

/// The FNV-1a twins share a program_hash and nothing else: each gets the
/// answers a fresh service gives it alone — cold, warm, in either order,
/// serial and on eight workers.
TEST_BOTH_DIGESTS(FnvTwinsGetTheirOwnAnswers) {
  ASSERT_EQ(contentHash64(FnvTwinA), contentHash64(FnvTwinB));
  auto Requests = [](const char *Src) {
    return std::vector<std::string>{reportRequest(Src, ""),
                                    parseRequestLine(Src)};
  };
  std::map<const char *, std::vector<std::string>> Alone;
  for (const char *Src : {FnvTwinA, FnvTwinB})
    Alone[Src] = Service().handleBatch(Requests(Src));
  EXPECT_NE(Alone[FnvTwinA][0].find("\"output\":\"f3d5e436c931ac0c\""),
            std::string::npos);
  EXPECT_NE(Alone[FnvTwinB][0].find("\"output\":\"e404f0b4b34bd45d\""),
            std::string::npos);
  EXPECT_NE(Alone[FnvTwinB][0].find("\"program_hash\":\"5b85016c4677ab4d\""),
            std::string::npos);
  for (unsigned Jobs : {1u, 8u})
    for (auto [First, Second] : {std::pair(FnvTwinA, FnvTwinB),
                                 std::pair(FnvTwinB, FnvTwinA)}) {
      ServiceOptions O;
      O.Jobs = Jobs;
      Service S(O);
      EXPECT_EQ(S.handleBatch(Requests(First)), Alone[First]);
      EXPECT_EQ(S.handleBatch(Requests(Second)), Alone[Second]);
      std::vector<std::string> Both = Requests(First), Expected = Alone[First];
      for (const std::string &L : Requests(Second))
        Both.push_back(L);
      for (const std::string &L : Alone[Second])
        Expected.push_back(L);
      EXPECT_EQ(S.handleBatch(Both), Expected) << "jobs " << Jobs;
    }
}

/// With every digest equal, one source's report keys differ only in
/// their confirmed fields: two inputs still get their own reports.
TEST(ServiceDegenerateDigest, DifferentInputsGetTheirOwnReports) {
  DegenerateDigests On;
  auto Report = [](const std::string &Input) {
    return std::string("{\"op\":\"report\",\"source\":\"") +
           jsonEscape(SourceA) + "\",\"input\":\"" + Input + "\"}";
  };
  std::string Three = Service().handle(Report("3"));
  std::string Twelve = Service().handle(Report("12"));
  EXPECT_NE(Three, Twelve);
  Service S;
  EXPECT_EQ(S.handle(Report("3")), Three);
  EXPECT_EQ(S.handle(Report("12")), Twelve);
  EXPECT_EQ(S.handle(Report("3")), Three);
}

/// A warm hit finds its source in the intern table: replaying a stream
/// runs FNV-1a once per distinct source, never once per request.
TEST(Service, FnvRunsOncePerDistinctSource) {
  std::vector<std::string> Stream;
  for (int Round = 0; Round < 4; ++Round)
    for (const char *Src : {SourceA, SourceB, FnvTwinA}) {
      Stream.push_back(estimateRequest(Src));
      Stream.push_back(parseRequestLine(Src));
    }
  for (unsigned Jobs : {1u, 8u}) {
    ServiceOptions O;
    O.Jobs = Jobs;
    Service S(O);
    S.handleBatch(Stream);
    S.handleBatch(Stream);
    EXPECT_EQ(S.caches().Sources.created(), 3u) << "jobs " << Jobs;
    EXPECT_EQ(S.caches().Sources.size(), 3u) << "jobs " << Jobs;
  }
}

/// The intern table holds a source only while a cache key or an
/// in-flight request does: many more distinct sources than the budget
/// holds leave no more live entries than resident keys, and --no-cache
/// leaves none after the batch and interns no key fields at all.
TEST(Service, SourceTableIsBoundedByTheCache) {
  std::vector<std::string> Stream;
  for (int I = 0; I < 64; ++I)
    Stream.push_back(estimateRequest(
        ("int main() { return " + std::to_string(I) + "; }").c_str()));
  ServiceOptions Tiny;
  Tiny.CacheBudgetBytes = 6 * 4096;
  Tiny.CacheShards = 1;
  Service S(Tiny);
  S.handleBatch(Stream);
  uint64_t Resident = 0;
  for (const ShardedCache *C : S.caches().all())
    Resident += C->stats().Entries;
  EXPECT_LT(Resident, Stream.size());
  EXPECT_LE(S.caches().Sources.size(), Resident);
  EXPECT_LE(S.caches().Fields.size(), Resident);

  ServiceOptions Off;
  Off.CacheBudgetBytes = 0;
  Service NoCache(Off);
  NoCache.handleBatch(Stream);
  EXPECT_EQ(NoCache.caches().Sources.size(), 0u);
  EXPECT_EQ(NoCache.caches().Fields.created(), 0u);
}

/// A key keeps its source alive, so every tier that holds one charges
/// the source's bytes: large sources with small answers (a parse answer
/// is a short function list) leave no more live source bytes than the
/// whole cache budget.
TEST(Service, SourceBytesStayWithinTheCacheBudget) {
  std::vector<std::string> Stream;
  const std::string Comment = "// " + std::string(16 * 1024, 'x') + "\n";
  for (int I = 0; I < 48; ++I)
    Stream.push_back(parseRequestLine(
        (Comment + "int main() { return " + std::to_string(I) + "; }")
            .c_str()));
  for (unsigned Jobs : {1u, 8u}) {
    ServiceOptions Small;
    Small.Jobs = Jobs;
    Small.CacheBudgetBytes = 6 * 64 * 1024;
    Small.CacheShards = 1;
    Service S(Small);
    S.handleBatch(Stream);
    EXPECT_GT(S.caches().Sources.size(), 0u) << "jobs " << Jobs;
    EXPECT_LE(S.caches().Sources.bytes(), Small.CacheBudgetBytes)
        << "jobs " << Jobs;
  }
}

/// A cfg entry co-owns its AST, so the cfg tier pays for that AST too:
/// over the suite's programs it charges at least what the ast tier does.
TEST(Service, CfgEntriesChargeTheAstTheyHold) {
  std::vector<std::string> Stream;
  for (const SuiteProgram &P : benchmarkSuite())
    Stream.push_back(parseRequestLine(P.Source.c_str()));
  ASSERT_EQ(Stream.size(), 14u);
  for (unsigned Jobs : {1u, 8u}) {
    ServiceOptions Opts;
    Opts.Jobs = Jobs;
    Service S(Opts);
    S.handleBatch(Stream);
    const CacheTierStats Ast = S.caches().Ast.stats();
    const CacheTierStats Cfg = S.caches().Cfg.stats();
    EXPECT_EQ(Ast.Entries, Stream.size()) << "jobs " << Jobs;
    EXPECT_EQ(Cfg.Entries, Stream.size()) << "jobs " << Jobs;
    EXPECT_GE(Cfg.Bytes, Ast.Bytes) << "jobs " << Jobs;
  }
}

/// engine:"native" objects stay loaded only while the native tier holds
/// them, plus the backend's one most recent artifact: distinct programs
/// through a tier that fits one leave at most two loaded.
TEST_BOTH_DIGESTS(NativeArtifactsAreBoundedByTheTier) {
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why))
    GTEST_SKIP() << "native tier unavailable: " << Why;
  ServiceOptions Small;
  Small.CacheShards = 1;
  Small.CacheBudgetBytes = 6 * 48 * 1024; // one ~35 KB C source per tier
  Service S(Small);
  for (int I = 0; I < 4; ++I) {
    std::string Src =
        "int main() { print_int(" + std::to_string(I) + "); return 0; }";
    std::string Resp = S.handle(reportRequest(Src.c_str(), "native"));
    EXPECT_NE(Resp.find("\"output\":\"" + std::to_string(I) + "\""),
              std::string::npos)
        << Resp;
  }
  uint64_t Resident = S.caches().Native.stats().Entries;
  EXPECT_LT(Resident, 4u);
  EXPECT_LE(test::loadedNativeObjects(), Resident + 1);
}

//===----------------------------------------------------------------------===//
// Metrics exposition, health, and request spans
//===----------------------------------------------------------------------===//

/// The exposition string out of one `metrics` response line.
std::string expositionOf(const std::string &Response) {
  auto Doc = parseJson(Response);
  EXPECT_TRUE(Doc.has_value()) << Response;
  if (!Doc)
    return "";
  const JsonValue *Result = Doc->find("result");
  const JsonValue *Expo = Result ? Result->find("exposition") : nullptr;
  EXPECT_TRUE(Expo && Expo->isString()) << Response;
  return Expo && Expo->isString() ? Expo->StringVal : "";
}

/// A mixed request batch ending in a deterministic-scope metrics probe.
std::vector<std::string> metricsProbeBatch() {
  std::vector<std::string> Requests;
  for (int I = 0; I < 12; ++I) {
    const char *Src = I % 2 ? SourceA : SourceB;
    if (I % 3 == 0)
      Requests.push_back(estimateRequest(Src));
    else if (I % 3 == 1)
      Requests.push_back(std::string("{\"op\":\"parse\",\"source\":\"") +
                         jsonEscape(Src) + "\"}");
    else
      Requests.push_back(optimizeRequest(Src));
  }
  Requests.push_back("not even json"); // counts into service.requests.bad
  Requests.push_back("{\"op\":\"metrics\",\"scope\":\"deterministic\"}");
  return Requests;
}

TEST_BOTH_DIGESTS(MetricsDeterministicScopeIsByteIdenticalAcrossJobsAndCache) {
  // The deterministic-scope metrics answer is part of the byte contract:
  // identical at every Jobs value and with the cache disabled, and a
  // mid-batch probe reflects exactly the requests that preceded it.
  auto Run = [](unsigned Jobs, size_t CacheBytes) {
    ServiceOptions SO;
    SO.Jobs = Jobs;
    SO.CacheBudgetBytes = CacheBytes;
    obs::Telemetry Tele;
    Tele.install();
    Service S(SO);
    std::vector<std::string> Out = S.handleBatch(metricsProbeBatch());
    Tele.uninstall();
    return Out.back();
  };
  std::string Jobs1 = Run(1, 256u << 20);
  EXPECT_EQ(Jobs1, Run(8, 256u << 20));
  EXPECT_EQ(Jobs1, Run(8, 0));
  EXPECT_EQ(Jobs1, Run(3, 256u << 20));

  std::string Expo = expositionOf(Jobs1);
  auto Doc = obs::parsePrometheus(Expo);
  ASSERT_TRUE(Doc.has_value()) << Expo;
  // 12 pipeline requests + 1 bad line + the probe itself.
  EXPECT_EQ(Doc->valueOr("sest_service_requests", -1), 14.0);
  EXPECT_EQ(Doc->valueOr("sest_service_requests_bad", -1), 1.0);
  EXPECT_EQ(Doc->valueOr("sest_service_requests_estimate", -1), 4.0);
  // Nothing live may leak into the deterministic scope.
  EXPECT_EQ(Doc->find("sest_service_request_us_count"), nullptr);
  EXPECT_EQ(Doc->find("sest_service_cache_ast_hits"), nullptr);
  EXPECT_EQ(Doc->find("sest_service_batches"), nullptr);
  EXPECT_TRUE(obs::lintPrometheus(Expo).empty());
}

TEST(Service, MetricsLiveScopeLintsCleanWithCacheGauges) {
  obs::Telemetry Tele;
  Tele.install();
  Service S;
  S.handle(estimateRequest(SourceA));
  S.handle(estimateRequest(SourceA));
  std::string Expo = expositionOf(S.handle("{\"op\":\"metrics\"}"));
  Tele.uninstall();

  auto Findings = obs::lintPrometheus(Expo);
  EXPECT_TRUE(Findings.empty()) << Findings.front();
  auto Doc = obs::parsePrometheus(Expo);
  ASSERT_TRUE(Doc.has_value());
  // Live scope carries the per-tier cache gauges and latency families.
  EXPECT_EQ(Doc->valueOr("sest_service_cache_response_hits", -1), 1.0);
  EXPECT_EQ(Doc->valueOr("sest_service_cache_response_misses", -1), 1.0);
  EXPECT_GE(Doc->valueOr("sest_service_cache_ast_bytes", -1), 1.0);
  EXPECT_EQ(Doc->valueOr("sest_service_request_us_count", -1), 2.0);
  EXPECT_EQ(Doc->Types.at("sest_service_cache_ast_hits"), "gauge");
}

TEST(Service, MetricsWithoutAmbientTelemetryStillServesCacheGauges) {
  // No Telemetry installed (a bare embedder): the exposition has no
  // registry series but still reports the tiers' lock-free totals.
  Service S;
  S.handle(estimateRequest(SourceA));
  std::string Expo = expositionOf(S.handle("{\"op\":\"metrics\"}"));
  auto Doc = obs::parsePrometheus(Expo);
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->find("sest_service_requests"), nullptr);
  EXPECT_EQ(Doc->valueOr("sest_service_cache_ast_misses", -1), 1.0);
  EXPECT_TRUE(obs::lintPrometheus(Expo).empty());
}

TEST(Service, MetricsRejectsUnknownScope) {
  Service S;
  std::string Resp = S.handle("{\"op\":\"metrics\",\"scope\":\"weekly\"}");
  EXPECT_NE(Resp.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(Resp.find("scope"), std::string::npos);
}

TEST(Service, HealthVerbEchoesConfig) {
  ServiceOptions SO;
  SO.Jobs = 4;
  Service S(SO);
  std::string Resp = S.handle("{\"op\":\"health\"}");
  EXPECT_NE(Resp.find("sest-service-health/1"), std::string::npos);
  EXPECT_NE(Resp.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(Resp.find("\"accepting\":true"), std::string::npos);
  EXPECT_NE(Resp.find("\"jobs\":4"), std::string::npos);
  EXPECT_NE(Resp.find("\"cache_enabled\":true"), std::string::npos);
  S.handle("{\"op\":\"shutdown\"}");
  EXPECT_NE(S.handle("{\"op\":\"health\"}").find("\"accepting\":false"),
            std::string::npos);
}

TEST(Service, StatsCarriesPerTierGauges) {
  Service S;
  S.handle(estimateRequest(SourceA));
  S.handle(estimateRequest(SourceA));
  std::string Stats = S.handle("{\"op\":\"stats\"}");
  auto Doc = parseJson(Stats);
  ASSERT_TRUE(Doc.has_value()) << Stats;
  const JsonValue *Result = Doc->find("result");
  ASSERT_NE(Result, nullptr);
  const JsonValue *Gauges = Result->find("gauges");
  ASSERT_NE(Gauges, nullptr) << Stats;
  auto Gauge = [&](const char *Name) {
    const JsonValue *G = Gauges->find(Name);
    return G && G->isNumber() ? G->NumberVal : -1.0;
  };
  EXPECT_EQ(Gauge("service.cache.response.hits"), 1.0);
  EXPECT_EQ(Gauge("service.cache.response.misses"), 1.0);
  EXPECT_EQ(Gauge("service.cache.ast.entries"), 1.0);
  EXPECT_EQ(Gauge("service.cache.ast.evictions"), 0.0);
  EXPECT_GE(Gauge("service.cache.ast.bytes"), 1.0);
}

TEST_BOTH_DIGESTS(RequestSpansAreByteIdenticalAcrossJobs) {
  // Each request gets a req:<ordinal> span: enqueue -> dequeue ->
  // execute -> respond, merged in request order. With one distinct
  // source per request (so no cross-request cache races), the event
  // stream is byte-identical across Jobs values.
  auto Run = [](unsigned Jobs) {
    std::vector<std::string> Requests;
    for (int I = 0; I < 8; ++I)
      Requests.push_back(estimateRequest(
          ("int main() { return " + std::to_string(I) + "; }").c_str()));
    ServiceOptions SO;
    SO.Jobs = Jobs;
    obs::EventLog Log;
    Log.install();
    Service S(SO);
    S.handleBatch(Requests);
    Log.uninstall();
    return Log.jsonl();
  };
  std::string Serial = Run(1);
  EXPECT_EQ(Serial, Run(8));

  // Span structure: every lifecycle kind present, tagged req:<N>.
  for (const char *Kind :
       {"service.request.enqueue", "service.request.dequeue",
        "service.request.execute", "service.request.respond"})
    EXPECT_NE(Serial.find(Kind), std::string::npos) << Kind;
  EXPECT_NE(Serial.find("\"prov\":\"req:0\""), std::string::npos);
  EXPECT_NE(Serial.find("\"prov\":\"req:7\""), std::string::npos);
  // Cache-outcome annotations ride on the spans.
  EXPECT_NE(Serial.find("service.request.cache"), std::string::npos);
  EXPECT_NE(Serial.find("\"outcome\":\"miss\""), std::string::npos);

  // All enqueues are emitted at intake, before any execution.
  size_t LastEnqueue = Serial.rfind("service.request.enqueue");
  size_t FirstExecute = Serial.find("service.request.execute");
  ASSERT_NE(LastEnqueue, std::string::npos);
  ASSERT_NE(FirstExecute, std::string::npos);
  EXPECT_LT(LastEnqueue, FirstExecute);
}

TEST(Service, WarmSpansRecordCacheHits) {
  obs::EventLog Log;
  Log.install();
  Service S;
  S.handle(estimateRequest(SourceA));
  S.handle(estimateRequest(SourceA));
  Log.uninstall();
  std::string Events = Log.jsonl();
  EXPECT_NE(Events.find("\"outcome\":\"hit\""), std::string::npos);
  EXPECT_NE(Events.find("\"tier\":\"response\""), std::string::npos);
}

} // namespace