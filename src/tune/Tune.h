//===- tune/Tune.h - Estimator-guided autotuner -----------------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The autotuner over the optimizer's TuneConfig space: a deterministic
/// search driver (seeded random sampling, then greedy coordinate
/// descent; exhaustive when the budget covers the whole grid) scores
/// candidate configurations with a pluggable cost oracle — the static
/// estimate, a single training profile, or a measured interpreter run —
/// and every oracle's winner is then evaluated the same way the opt
/// report evaluates passes: a real run on the held-out evaluation input.
///
/// The paper's question, asked of search instead of a single pass: how
/// much of the improvement a profile-guided search finds does a purely
/// static search recover? The headline is the static search recovery
/// ratio (floor: 0.7; the report only flags a miss, and a tier-1 test
/// holds the checked-in baseline to the floor).
///
/// Everything is deterministic. Config scores are memoized by the
/// config's content hash (only cache misses consume search budget), the
/// random phase derives its seed from (tuner seed, program source hash,
/// oracle name), and the sest-tune-report/1 document contains no
/// wall-clock fields, so it is byte-identical across job counts and
/// cache states.
///
//===----------------------------------------------------------------------===//

#ifndef TUNE_TUNE_H
#define TUNE_TUNE_H

#include "estimators/Pipeline.h"
#include "interp/Interp.h"
#include "opt/Pass.h"
#include "suite/SuiteRunner.h"

#include <string>
#include <vector>

namespace sest {
namespace tune {

/// How a candidate configuration is scored during the search.
enum class TuneOracle {
  Static,   ///< Analytic cost under the static-estimate weights.
  Profile,  ///< Analytic cost under the training-input profile weights.
  Measured, ///< Real interpreter run on the training input.
};

/// Stable oracle name ("static", "profile", "measured").
const char *tuneOracleName(TuneOracle O);

/// Parses an oracle name; returns false on an unknown name.
bool parseTuneOracle(std::string_view Name, TuneOracle &O);

/// Tuner configuration.
struct TuneOptions {
  /// Which oracles to search with. The static-vs-profile comparison
  /// (overlap, regret, recovery) needs both of the first two; the
  /// measured oracle is opt-in (it runs the program once per cache
  /// miss).
  std::vector<TuneOracle> Oracles = {TuneOracle::Static,
                                     TuneOracle::Profile};
  /// Search budget per (program, oracle): the number of distinct
  /// configurations evaluated. Memoization cache hits are free. When the
  /// budget covers the whole grid the search is exhaustive.
  uint32_t Budget = 24;
  /// Tuner seed, mixed with the program hash and oracle name into each
  /// search's private PRNG stream.
  uint64_t Seed = 0;
  /// Estimator configuration for the static oracle's weights.
  EstimatorOptions Est;
  InterpEngine Engine = InterpEngine::Bytecode;
  /// Worker threads across programs (obs::parallelFor: 0 = one per
  /// core, 1 = serial). Reports are byte-identical for every value.
  unsigned Jobs = 1;
  /// Floor on the suite static search recovery ratio (reported as
  /// meets_floor).
  double StaticSearchRecoveryFloor = 0.7;
};

/// One search trial (one point visited), in visit order.
struct TuneTrial {
  uint32_t Index = 0;     ///< Visit order, 0-based, cache hits included.
  std::string Phase;      ///< "seed" | "descent" | "exhaustive".
  std::string ConfigHash; ///< hashHex of the canonical config hash.
  double Objective = 0.0; ///< Oracle score of the configuration.
  bool CacheHit = false;  ///< Score came from the memo cache.
  bool Improved = false;  ///< New best at the time of the visit.
};

/// One oracle's search outcome on one program.
struct TuneOracleResult {
  std::string Oracle;
  opt::TuneConfig Best;
  std::string BestConfigHash;
  double SearchObjective = 0.0; ///< Oracle score of the winner.
  /// Held-out evaluation of the winner: measured layout cost of a real
  /// run on the evaluation input plus the function-order locality cost
  /// under that run's own call-site counts.
  double EvalCost = 0.0;
  double EvalLayoutCost = 0.0;
  double EvalFuncOrderCost = 0.0;
  double EvalReduction = 0.0; ///< (identity - eval) / identity.
  uint64_t Evaluations = 0;   ///< Distinct configs scored (cache misses).
  uint64_t CacheHits = 0;
  bool Exhaustive = false;
  /// The winner replays correctly: differential verification against the
  /// unoptimized program on every input.
  bool Verified = true;
  std::string VerifyDetail;
  std::vector<TuneTrial> Trajectory;
};

/// Everything measured for one program.
struct TuneProgramReport {
  std::string Name;
  std::string ProgramHash;
  std::string EvalInput;
  bool Ok = false;
  std::string Error;
  /// Identity baseline on the evaluation input: measured layout cost of
  /// the untouched program plus its identity-order locality cost.
  double IdentityEvalCost = 0.0;
  std::vector<TuneOracleResult> Oracles;
  /// Static vs profile winning configs: fraction of search dimensions on
  /// which the two winners agree (1.0 when either oracle is absent).
  double ConfigOverlap = 1.0;
  /// (static eval cost - profile eval cost) / identity cost; how much
  /// held-out performance the static search gave up.
  double Regret = 0.0;
};

/// The whole-suite report.
struct TuneSuiteReport {
  std::vector<TuneProgramReport> Programs;
  // Totals over programs with Ok == true (and both compared oracles).
  double StaticSearchReduction = 0.0;  ///< Σ (identity - static eval).
  double ProfileSearchReduction = 0.0; ///< Σ (identity - profile eval).
  /// StaticSearchReduction / ProfileSearchReduction (1.0 when the
  /// profile-guided search found nothing to improve).
  double StaticSearchRecovery = 1.0;
  bool MeetsRecoveryFloor = true;
  double MeanConfigOverlap = 1.0;
  double MeanRegret = 0.0;
  bool AllVerified = true;
};

/// The size of the fixed search grid (distinct canonical configs may be
/// fewer: disabling inlining collapses the inline-knob dimensions).
uint32_t tuneSearchSpaceSize();

/// Runs the search for every oracle over every compiled-and-profiled
/// program. The profiling runs are the identity baselines the winners
/// verify against, so programs need at least two inputs profiled with
/// default options (baselineError); others are reported Ok == false.
/// Parallel across programs; byte-identical results for every Jobs value.
TuneSuiteReport
computeTuneReport(const std::vector<CompiledSuiteProgram> &Programs,
                  const TuneOptions &Options = {});

/// Serializes as sest-tune-report/1 (byte-deterministic).
std::string tuneReportJson(const TuneSuiteReport &Report,
                           const TuneOptions &Options = {});

/// Single-source entry point for the analysis service: compiles \p
/// Source, profiles it on two synthetic inputs (training seed 1,
/// evaluation seed 2, both fed \p Input on stdin), runs the search, and
/// returns the sest-tune-report/1 document. Compile and runtime errors
/// are data, not transport failures: the report comes back with the
/// program's Ok == false and the error inside.
std::string tuneSource(std::string_view Source, std::string_view Input,
                       const TuneOptions &Options = {});

} // namespace tune
} // namespace sest

#endif // TUNE_TUNE_H
