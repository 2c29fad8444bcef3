//===- opt/OptReport.h - End-to-end optimization scoring --------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end experiment the paper's title promises: run each
/// optimizer pass three ways — static-estimate-driven, one-profile-driven
/// (the first input), and oracle (the held-out aggregate of every input
/// except the evaluation one) — then measure on the evaluation input how
/// much dynamic layout cost each variant removes and how much the
/// decisions overlap. The headline number is the static recovery ratio:
/// the fraction of the profile-driven layout's cost reduction that the
/// purely static estimates recover (floor: 0.8; the report only flags a
/// miss, and a tier-1 test holds the checked-in baseline to the floor).
///
/// Serialized as the sest-opt-report/1 JSON document, which contains no
/// wall-clock fields and is byte-stable across interpreter engines and
/// job counts.
///
//===----------------------------------------------------------------------===//

#ifndef OPT_OPTREPORT_H
#define OPT_OPTREPORT_H

#include "estimators/Pipeline.h"
#include "interp/Interp.h"
#include "opt/FuncOrder.h"
#include "opt/Inline.h"
#include "opt/Layout.h"
#include "opt/Pass.h"
#include "opt/WeightSource.h"
#include "suite/SuiteRunner.h"

#include <string>
#include <vector>

namespace sest {
namespace opt {

/// Which passes the report (or sestc --optimize) exercises.
enum class OptPassSet {
  Layout,
  Inline,
  All,
};

/// Configuration for one report run.
struct OptReportOptions {
  OptPassSet Passes = OptPassSet::All;
  EstimatorOptions Est;
  LayoutOptions Layout;
  InlineOptions Inline;
  InterpEngine Engine = InterpEngine::Bytecode;
  /// Worker threads across programs (obs::parallelFor: 0 = one per
  /// core, 1 = serial). Results are byte-identical for every value.
  unsigned Jobs = 1;
  /// Floor on the suite static recovery ratio (reported as meets_floor).
  double StaticRecoveryFloor = 0.8;
  /// Also compile layout-on and layout-off native binaries from the
  /// static layout plan (the same plan the classifier scored) and time
  /// them on the evaluation input. Wall-clock fields are the one
  /// exception to the report's byte-stability guarantee; every other
  /// field stays deterministic. No-op when no host C compiler exists.
  bool MeasureNative = false;
};

/// One weight source's layout outcome on one program.
struct LayoutSourceResult {
  std::string Source; ///< "static" | "profile" | "oracle".
  double Cost = 0.0;  ///< Dynamic layout cost on the evaluation input.
  double Reduction = 0.0; ///< (identity - cost) / identity.
  uint32_t ReorderedFunctions = 0;
  uint32_t OutlinedBlocks = 0; ///< Blocks outlined past FirstColdPos.
};

/// One weight source's inlining outcome on one program.
struct InlineSourceResult {
  std::string Source;
  std::vector<uint32_t> Sites; ///< Applied call-site ids, plan order.
  bool Verified = true; ///< Differential check passed on every input.
  std::string VerifyDetail; ///< First mismatch, empty when verified.
  double CostReduction = 0.0; ///< Layout-cost reduction on eval input.
  uint64_t CallsRemoved = 0;  ///< Dynamic calls removed on eval input.
};

/// One weight source's function-ordering outcome on one program. Every
/// source's order is costed under the held-out evaluation profile's
/// call-site counts (functionOrderCost), so the comparison is
/// apples-to-apples with the layout scoring discipline.
struct FuncOrderSourceResult {
  std::string Source;
  double Cost = 0.0;      ///< Locality cost under eval-input weights.
  double Reduction = 0.0; ///< (identity - cost) / identity.
  uint32_t NumChains = 0;
  bool Reordered = false; ///< Order differs from identity.
};

/// Native-tier measurement for one program (MeasureNative only): the
/// static-weight layout plan, compiled layout-true into a real binary
/// and raced against the identity-layout binary on the evaluation
/// input. The deterministic fields double as an end-to-end check that
/// code motion never changes behavior: both binaries must produce
/// bit-identical profiles, and the layout binary's dynamic layout cost
/// must equal the classifier's reclassified prediction.
struct NativeTimingResult {
  bool Available = false; ///< Host compiler found and both builds ok.
  std::string Detail;     ///< Capability/compile diagnostic when not.
  double IdentityWallMs = 0.0; ///< Best-of-3 eval run, identity layout.
  double LayoutWallMs = 0.0;   ///< Best-of-3 eval run, static layout.
  double IdentityCompileMs = 0.0; ///< Emission + host cc + dlopen.
  double LayoutCompileMs = 0.0;
  bool ProfilesMatch = false;   ///< Binaries' profiles bit-identical.
  bool LayoutCostMatch = false; ///< Native cost == classifier's cost.
};

/// Everything measured for one program.
struct OptProgramReport {
  std::string Name;
  /// support::contentHash64 of the program source (16 hex digits); the
  /// same identity the analysis service and the accuracy report use.
  std::string ProgramHash;
  std::string EvalInput; ///< Held-out input the costs are measured on.
  bool Ok = false;
  std::string Error;
  double IdentityCost = 0.0;
  std::vector<LayoutSourceResult> Layout;
  /// Real static-layout VM run matches the reclassified prediction.
  bool VmCrossCheckOk = true;
  /// Static vs profile layout agreement: shared adjacent block pairs
  /// over the profile layout's pairs.
  double LayoutPairOverlap = 0.0;
  std::vector<InlineSourceResult> Inline;
  /// Jaccard overlap of static vs profile applied inline site sets.
  double InlineJaccard = 0.0;
  /// Function ordering (the Pettis–Hansen second half), scored like
  /// layout: identity-order locality cost on the evaluation input, one
  /// result per weight source, and static-vs-profile adjacency overlap.
  double FuncOrderIdentityCost = 0.0;
  std::vector<FuncOrderSourceResult> FuncOrder;
  double FuncOrderOverlap = 0.0;
  /// Branch hints: never-predicted-taken arc agreement (Jaccard).
  uint64_t StaticNeverTaken = 0;
  uint64_t ProfileNeverTaken = 0;
  double HintAgreement = 0.0;
  /// Layout-true native timing (filled only with MeasureNative).
  NativeTimingResult Native;
};

/// The whole-suite report.
struct OptSuiteReport {
  std::vector<OptProgramReport> Programs;
  // Suite totals over programs with Ok == true.
  double StaticTotalReduction = 0.0;  ///< Σ (identity - static cost).
  double ProfileTotalReduction = 0.0; ///< Σ (identity - profile cost).
  double OracleTotalReduction = 0.0;
  /// StaticTotalReduction / ProfileTotalReduction (1.0 when the
  /// profile-driven layout found nothing to improve).
  double StaticRecoveryRatio = 1.0;
  bool MeetsRecoveryFloor = true;
  bool AllInlineVerified = true;
  bool AllCrossChecksOk = true;
  double MeanInlineJaccard = 0.0;
  // Function-ordering totals (same discipline as the layout totals).
  double StaticFuncOrderReduction = 0.0;
  double ProfileFuncOrderReduction = 0.0;
  /// StaticFuncOrderReduction / ProfileFuncOrderReduction (1.0 when the
  /// profile-driven order found nothing to improve).
  double FuncOrderRecovery = 1.0;
  double MeanFuncOrderOverlap = 0.0;
};

/// Scores the passes over compiled-and-profiled programs. The profiling
/// runs are the identity baselines, so a program that failed, has fewer
/// than two inputs, or was profiled with non-default options is reported
/// Ok == false (baselineError). Parallel across programs; byte-identical
/// results for every Jobs value and every engine, whichever engine
/// profiled the programs.
OptSuiteReport
computeOptReport(const std::vector<CompiledSuiteProgram> &Programs,
                 const OptReportOptions &Options = {});

/// Serializes as sest-opt-report/1.
std::string optReportJson(const OptSuiteReport &Report,
                          const OptReportOptions &Options = {});

/// What one configuration did to one program (ConfigEvaluator).
struct ConfigEvaluation {
  std::vector<uint32_t> Sites; ///< Applied call-site ids, plan order.
  /// Every input's run matches its profiling run (compareInlinedRun).
  bool Verified = true;
  std::string VerifyDetail; ///< "<input>: <first mismatch>", or empty.
  LayoutCostCounters EvalCost; ///< The evaluation input's run.
  /// Function-order locality cost under the evaluation run's call-site
  /// counts (identity order when the config has no funcorder pass).
  double EvalFuncOrderCost = 0.0;
};

/// The build -> run -> verify loop of the opt report and the tuner, for
/// one compiled-and-profiled program (baselineError empty). evaluate()
/// compiles a fresh copy, runs the config's Pipeline under \p W (weights
/// computed on the profiled program carry over: ids are stable across
/// compiles), runs every input under the resulting block order, and
/// checks each run against its profiling run. Configurations that apply
/// the same sites in the same order and produce the same block order
/// build the same program, so they share one set of runs.
class ConfigEvaluator {
public:
  ConfigEvaluator(const CompiledSuiteProgram &CSP, InterpEngine Engine);
  ConfigEvaluation evaluate(const TuneConfig &Config, const WeightSource &W);

private:
  struct RunSet {
    std::vector<uint32_t> Sites;
    ProgramBlockOrder Order;
    std::vector<RunResult> Runs;
  };
  const CompiledSuiteProgram &CSP;
  InterpOptions RunOpts;
  std::vector<RunSet> Shared;
};

/// Short name for an OptPassSet ("layout", "inline", "all").
const char *optPassSetName(OptPassSet Passes);

} // namespace opt
} // namespace sest

#endif // OPT_OPTREPORT_H
