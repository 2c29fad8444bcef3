//===- bench/BenchCommon.h - Shared experiment drivers ---------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the paper-reproduction benches: compile+profile
/// the suite once, then score estimators with the paper's protocols —
/// static estimates against each profile averaged, profiles against the
/// aggregate of the others (§3).
///
//===----------------------------------------------------------------------===//

#ifndef BENCH_BENCHCOMMON_H
#define BENCH_BENCHCOMMON_H

#include "estimators/Pipeline.h"
#include "metrics/BranchMiss.h"
#include "metrics/Evaluation.h"
#include "suite/Suite.h"
#include "suite/SuiteRunner.h"
#include "suite/Synthetic.h"
#include "support/Json.h"
#include "support/Prng.h"
#include "support/StringUtils.h"
#include "support/TextTable.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace sest::bench {

/// Prints to stdout (benches are tools; the iostream ban applies to
/// libraries).
inline void out(const std::string &S) { std::fputs(S.c_str(), stdout); }

/// Compile + profile the whole suite, exiting loudly on failure.
inline std::vector<CompiledSuiteProgram> loadSuite() {
  std::vector<CompiledSuiteProgram> Suite = compileAndProfileSuite();
  for (const CompiledSuiteProgram &P : Suite) {
    if (!P.Ok) {
      out("FATAL: " + P.Error + "\n");
      std::exit(1);
    }
  }
  return Suite;
}

/// Average over profiles of a static estimate's score.
inline double
scoreStaticEstimate(const CompiledSuiteProgram &P,
                    const ProgramEstimate &E,
                    const std::function<double(const ProgramEstimate &,
                                               const Profile &)> &Score) {
  return averageOverProfiles(P.Profiles, [&](const Profile &Prof) {
    return Score(E, Prof);
  });
}

/// Leave-one-out profiling score: each profile is predicted by the
/// aggregate of the others.
inline double scoreProfilingEstimate(
    const CompiledSuiteProgram &P,
    const std::function<double(const ProgramEstimate &, const Profile &)>
        &Score) {
  double Sum = 0;
  for (size_t I = 0; I < P.Profiles.size(); ++I) {
    Profile Agg = aggregateExcept(P.Profiles, I);
    ProgramEstimate E = estimateFromProfile(Agg, *P.CG);
    Sum += Score(E, P.Profiles[I]);
  }
  return Sum / static_cast<double>(P.Profiles.size());
}

/// Static estimate for a program under \p Options.
inline ProgramEstimate estimateWith(const CompiledSuiteProgram &P,
                                    const EstimatorOptions &Options) {
  return estimateProgram(P.unit(), *P.Cfgs, *P.CG, Options);
}

/// Percent string with one decimal.
inline std::string pct(double Fraction) { return formatPercent(Fraction); }

//===----------------------------------------------------------------------===//
// Synthetic request workload — bench_service's request model.
//
// The stream of requests an analysis service sees: a pool of
// genprog-shaped programs whose popularity follows a zipfian
// rank-frequency law (a few hot sources dominate, a long tail recurs
// rarely), crossed with a weighted mix of service operations.
//===----------------------------------------------------------------------===//

/// Zipfian rank sampler over [0, Count): rank R is drawn with
/// probability proportional to 1/(R+1)^Exponent. Deterministic for a
/// fixed (Count, Exponent, Seed).
class ZipfSampler {
public:
  ZipfSampler(size_t Count, double Exponent, uint64_t Seed) : Rng(Seed) {
    Cdf.reserve(Count);
    double Sum = 0.0;
    for (size_t I = 0; I < Count; ++I) {
      Sum += 1.0 / std::pow(static_cast<double>(I + 1), Exponent);
      Cdf.push_back(Sum);
    }
    for (double &C : Cdf)
      C /= Sum;
  }

  size_t next() {
    double U = Rng.nextDouble();
    return static_cast<size_t>(
        std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
  }

private:
  std::vector<double> Cdf;
  Prng Rng;
};

/// One service operation with its relative weight in the request mix.
struct RequestMixEntry {
  const char *Op;
  unsigned Weight;
};

/// The default op mix: mostly estimates (the service's reason to
/// exist), a fifth cheap parses, the rest full optimizer plans and
/// interpreter-backed reports.
inline const std::vector<RequestMixEntry> &defaultRequestMix() {
  static const std::vector<RequestMixEntry> Mix = {
      {"estimate", 55}, {"parse", 20}, {"optimize", 15}, {"report", 10}};
  return Mix;
}

/// One sampled request: which pool program, which operation, and a
/// small variant index the bench maps to an options/passes/seed flavor
/// (so identical (program, op) pairs still exercise distinct cache
/// keys).
struct SampledRequest {
  size_t Program;
  const char *Op;
  unsigned Variant;
};

/// Deterministic request stream: zipfian program popularity crossed
/// with a weighted op mix. Same (pool size, mix, seed) — same stream,
/// on every platform.
class RequestStream {
public:
  RequestStream(size_t PoolSize, std::vector<RequestMixEntry> MixIn,
                uint64_t Seed, double ZipfExponent = 1.0)
      : Programs(PoolSize, ZipfExponent, Seed),
        Mix(std::move(MixIn)), Rng(Seed ^ 0x9e3779b97f4a7c15ULL) {
    for (const RequestMixEntry &E : Mix)
      TotalWeight += E.Weight;
  }

  SampledRequest next() {
    SampledRequest R;
    R.Program = Programs.next();
    uint64_t W = Rng.nextBelow(TotalWeight);
    R.Op = Mix.back().Op;
    for (const RequestMixEntry &E : Mix) {
      if (W < E.Weight) {
        R.Op = E.Op;
        break;
      }
      W -= E.Weight;
    }
    R.Variant = static_cast<unsigned>(Rng.nextBelow(4));
    return R;
  }

private:
  ZipfSampler Programs;
  std::vector<RequestMixEntry> Mix;
  Prng Rng;
  uint64_t TotalWeight = 0;
};

/// Knobs for the synthetic source pool backing a workload.
struct WorkloadConfig {
  size_t PoolSize = 48;     ///< distinct programs
  size_t TargetBlocks = 80; ///< CFG blocks per program
  uint64_t Seed = 1;
};

/// Pool of genprog-shaped sources cycling the five generator shapes
/// (loop nests, switch dispatch, goto cycles, wide calls, mixed) with
/// per-program seeds, so the workload stresses every solver idiom.
inline std::vector<std::string>
syntheticSourcePool(const WorkloadConfig &C) {
  static const SyntheticShape Shapes[] = {
      SyntheticShape::LoopNest, SyntheticShape::SwitchDispatch,
      SyntheticShape::GotoCycles, SyntheticShape::WideCalls,
      SyntheticShape::Mixed};
  std::vector<std::string> Pool;
  Pool.reserve(C.PoolSize);
  for (size_t I = 0; I < C.PoolSize; ++I) {
    SyntheticConfig SC;
    SC.Shape = Shapes[I % (sizeof(Shapes) / sizeof(Shapes[0]))];
    SC.TargetBlocks = C.TargetBlocks;
    SC.Seed = C.Seed + I;
    Pool.push_back(generateSyntheticSource(SC));
  }
  return Pool;
}

/// Machine-readable bench output. Construct with argc/argv; when the
/// user passed `--json FILE`, every add() is collected and finish()
/// writes one JSON document:
///
///   {"schema": "sest-bench-report/1", "bench": "<name>",
///    "results": [{"name": ..., "value": ...} | {"name": ..., "text": ...}]}
///
/// Without --json the reporter is inert and add()/finish() cost nothing,
/// so benches call it unconditionally alongside their tables.
class BenchReport {
public:
  BenchReport(std::string_view BenchName, int argc, char **argv) {
    for (int I = 1; I + 1 < argc; ++I)
      if (std::string_view(argv[I]) == "--json")
        Path = argv[I + 1];
    if (Path.empty())
      return;
    W.beginObject();
    W.member("schema", "sest-bench-report/1");
    W.member("bench", BenchName);
    W.key("results");
    W.beginArray();
  }

  bool enabled() const { return !Path.empty(); }

  /// Records one named numeric result (a table cell, an average, ...).
  void add(std::string_view Name, double Value) {
    if (!enabled())
      return;
    W.beginObject();
    W.member("name", Name);
    W.member("value", Value);
    W.endObject();
  }

  /// Records one named string result.
  void add(std::string_view Name, std::string_view Text) {
    if (!enabled())
      return;
    W.beginObject();
    W.member("name", Name);
    W.member("text", Text);
    W.endObject();
  }

  /// Closes the document and writes it. Returns false only when a file
  /// was requested and could not be written.
  bool finish() {
    if (!enabled())
      return true;
    W.endArray();
    W.endObject();
    std::ofstream OutFile(Path);
    if (!OutFile) {
      out("bench: cannot write '" + Path + "'\n");
      return false;
    }
    OutFile << W.str();
    out("bench results written to " + Path + "\n");
    Path.clear();
    return true;
  }

private:
  std::string Path;
  JsonWriter W;
};

} // namespace sest::bench

#endif // BENCH_BENCHCOMMON_H
