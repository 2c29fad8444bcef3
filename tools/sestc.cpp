//===- tools/sestc.cpp - Static-estimator command-line driver --------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sestc — the static-estimator compiler driver. Compiles a mini-C file
/// and prints, per the selected action:
///
///   --ast         annotated AST (Figure 3 style, with smart estimates)
///   --cfg         control-flow graphs
///   --dot         Graphviz CFG digraphs annotated with smart estimates
///   --callgraph   Graphviz call graph (with the pointer node)
///   --estimate    block / function / call-site frequency estimates
///   --run         execute the program (stdin text via --input) and
///                 print its output plus a profile summary
///   --compare     run AND estimate, with weight-matching scores
///   --suite       compile and profile the built-in benchmark suite
///                 (no input file; combine with --report)
///   --optimize    run the estimate-driven optimizer passes (see
///                 docs/OPTIMIZATION.md); with --suite, score them
///                 three ways and write --opt-report FILE
///
/// The full option list lives in ONE place — the OptionTable below —
/// which generates both the usage text and `--help`; run `sestc --help`
/// for the authoritative list (tools/check_unknown_option.cmake asserts
/// every table entry appears there). See docs/OBSERVABILITY.md for the
/// observability flags and docs/OPTIMIZATION.md for the optimizer ones.
///
//===----------------------------------------------------------------------===//

#include "backend/Backend.h"
#include "backend/Native.h"
#include "callgraph/CallGraph.h"
#include "estimators/Pipeline.h"
#include "interp/Interp.h"
#include "interp/bytecode/BytecodeCompiler.h"
#include "lang/AstPrinter.h"
#include "lang/Parser.h"
#include "metrics/Evaluation.h"
#include "obs/Accuracy.h"
#include "obs/EventLog.h"
#include "obs/Export.h"
#include "opt/OptReport.h"
#include "opt/Pass.h"
#include "obs/Telemetry.h"
#include "profile/Profile.h"
#include "suite/SuiteRunner.h"
#include "support/CliOptions.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/TextTable.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

using namespace sest;

namespace {

void out(const std::string &S) { std::fputs(S.c_str(), stdout); }

/// The options sestc understands. The single source of truth: the usage
/// text, `--help`, and the unknown-option suggestion list are all
/// generated from this table, so they cannot drift apart.
const OptionSpec OptionTable[] = {
    {"--ast", nullptr, "print the annotated AST (Figure 3 style)"},
    {"--cfg", nullptr, "print control-flow graphs"},
    {"--dot", nullptr, "Graphviz CFGs annotated with smart estimates"},
    {"--callgraph", nullptr, "Graphviz call graph (with the pointer node)"},
    {"--estimate", nullptr, "print block/function/call-site estimates"},
    {"--run", nullptr, "execute the program and print a profile summary"},
    {"--compare", nullptr, "run AND estimate with matching scores (default)"},
    {"--suite", nullptr, "compile and profile the built-in benchmark suite"},
    {"--optimize", "layout|inline|all",
     "run the estimate-driven optimizer passes"},
    {"--pass-order", "LIST",
     "single-file optimize: custom pass pipeline, comma-separated "
     "(layout,inline,funcorder)"},
    {"--tune-config", "FILE",
     "single-file optimize: replay a sest-tune-config/1 (e.g. a sestune "
     "winner)"},
    {"--weights", "static|profile",
     "weight source for single-file --optimize (default static)"},
    {"--opt-report", "FILE", "with --suite: write sest-opt-report/1 JSON"},
    {"--intra", "loop|smart|markov",
     "intra-procedural estimator (default smart)"},
    {"--inter", "call-site|direct|all_rec|all_rec2|markov",
     "inter-procedural estimator (default markov)"},
    {"--loop-count", "N", "assumed loop iterations (default 5)"},
    {"--counted-loops", nullptr, "use exact constant trip counts"},
    {"--input", "TEXT", "program input text"},
    {"--seed", "N", "PRNG seed for rand()"},
    {"--interp", "ast|bytecode|native",
     "execution engine (default bytecode)"},
    {"--emit-c", "FILE",
     "lower the program to standalone C (native backend) and exit"},
    {"--native-diff", "FILE",
     "with --suite: write the sest-native-diff/1 three-engine report"},
    {"--native-timing", nullptr,
     "with --optimize/--opt-report: time layout-true native binaries"},
    {"--dump-suite-program", "NAME",
     "print a built-in suite program's mini-C source"},
    {"--jobs", "N",
     "worker threads (0 = cores; results identical for every N)"},
    {"--solver", "sparse|dense",
     "Markov linear-solver tier (default sparse; dense is the oracle)"},
    {"--emit-profile", "FILE", "after --run/--compare, save the profile"},
    {"--score-profile", "FILE",
     "score the estimate against a saved profile instead of running"},
    {"--trace", "FILE", "write Chrome trace-event JSON of the run"},
    {"--log", "FILE",
     "write the sest-events/1 JSONL decision/provenance log"},
    {"--stats", nullptr, "print phase times and all counters"},
    {"--stats-format", "table|prom",
     "counter output format for --stats: aligned table (default) or "
     "Prometheus text exposition"},
    {"--report", "FILE", "write machine-readable JSON run/suite report"},
    {"--explain", nullptr, "annotated listing + WORST-n divergence tables"},
    {"--accuracy-report", "FILE", "write sest-accuracy-report/1 JSON"},
    {"--validate-json", "FILE",
     "round-trip FILE through the project JSON parser"},
    {"--help", nullptr, "print this help and exit"},
};

std::string helpText() {
  return renderHelp("usage: sestc [action] [options] file.mc", OptionTable,
                    32);
}

[[noreturn]] void usage() {
  out(helpText());
  std::exit(2);
}

[[noreturn]] void unknownOption(const std::string &A) {
  std::fputs(concat("sestc: unknown option '", A, "'",
                    didYouMean(A, OptionTable), "\n")
                 .c_str(),
             stderr);
  std::exit(2);
}

/// Rejects an unknown value for a closed option-value set (e.g.
/// `--interp natve`) with the same did-you-mean treatment typo'd flags
/// get, falling back to listing the valid values.
[[noreturn]] void unknownValue(const std::string &Flag,
                               const std::string &V,
                               std::initializer_list<const char *> Valid) {
  std::string Msg =
      "sestc: unknown value '" + V + "' for " + Flag;
  const std::string Hint =
      didYouMean(V, Valid, [](const char *Name) { return Name; });
  if (!Hint.empty()) {
    Msg += Hint;
  } else {
    Msg += " (expected ";
    bool FirstName = true;
    for (const char *Name : Valid) {
      if (!FirstName)
        Msg += "|";
      FirstName = false;
      Msg += Name;
    }
    Msg += ")";
  }
  std::fputs((Msg + "\n").c_str(), stderr);
  std::exit(2);
}

struct Options {
  std::string Action = "--compare";
  std::string File;
  std::string Input;
  std::string EmitProfile;
  std::string ScoreProfile;
  std::string TraceFile;
  std::string LogFile;
  std::string ReportFile;
  std::string AccuracyReportFile;
  std::string ValidateJsonFile;
  std::string OptReportFile;
  std::string EmitCFile;
  std::string NativeDiffFile;
  std::string DumpSuiteProgram;
  std::string WeightsSource = "static";
  std::string PassOrder;
  std::string TuneConfigFile;
  opt::OptPassSet Optimize = opt::OptPassSet::All;
  bool HasOptimize = false;
  bool NativeTiming = false;
  bool Explain = false;
  bool Stats = false;
  bool StatsProm = false;
  uint64_t Seed = 1;
  unsigned Jobs = 0;
  InterpEngine Engine = InterpEngine::Bytecode;
  EstimatorOptions Est;
};

Options parseArgs(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= argc)
        usage();
      return argv[++I];
    };
    if (A == "--ast" || A == "--cfg" || A == "--dot" ||
        A == "--callgraph" || A == "--estimate" || A == "--run" ||
        A == "--compare" || A == "--suite") {
      O.Action = A;
    } else if (A == "--intra") {
      std::string V = Next();
      if (V == "loop")
        O.Est.Intra = IntraEstimatorKind::Loop;
      else if (V == "smart")
        O.Est.Intra = IntraEstimatorKind::Smart;
      else if (V == "markov")
        O.Est.Intra = IntraEstimatorKind::Markov;
      else
        usage();
    } else if (A == "--inter") {
      std::string V = Next();
      if (V == "call-site")
        O.Est.Inter = InterEstimatorKind::CallSite;
      else if (V == "direct")
        O.Est.Inter = InterEstimatorKind::Direct;
      else if (V == "all_rec")
        O.Est.Inter = InterEstimatorKind::AllRec;
      else if (V == "all_rec2")
        O.Est.Inter = InterEstimatorKind::AllRec2;
      else if (V == "markov")
        O.Est.Inter = InterEstimatorKind::Markov;
      else
        usage();
    } else if (A == "--loop-count") {
      O.Est.setLoopIterations(std::strtod(Next().c_str(), nullptr));
    } else if (A == "--counted-loops") {
      O.Est.Branch.UseConstantLoopBounds = true;
    } else if (A == "--input") {
      O.Input = Next();
    } else if (A == "--seed") {
      O.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    } else if (A == "--interp") {
      std::string V = Next();
      if (V == "ast")
        O.Engine = InterpEngine::Ast;
      else if (V == "bytecode")
        O.Engine = InterpEngine::Bytecode;
      else if (V == "native")
        O.Engine = InterpEngine::Native;
      else
        unknownValue("--interp", V, {"ast", "bytecode", "native"});
    } else if (A == "--jobs") {
      O.Jobs = static_cast<unsigned>(
          std::strtoul(Next().c_str(), nullptr, 10));
      // Single-file estimation parallelizes per function with the same
      // knob (suite runs parallelize per program instead).
      O.Est.Jobs = O.Jobs;
    } else if (A == "--solver") {
      std::string V = Next();
      if (V == "sparse")
        O.Est.setSolver(MarkovSolverKind::Sparse);
      else if (V == "dense")
        O.Est.setSolver(MarkovSolverKind::Dense);
      else
        usage();
    } else if (A == "--optimize") {
      std::string V = Next();
      if (V == "layout")
        O.Optimize = opt::OptPassSet::Layout;
      else if (V == "inline")
        O.Optimize = opt::OptPassSet::Inline;
      else if (V == "all")
        O.Optimize = opt::OptPassSet::All;
      else
        usage();
      O.HasOptimize = true;
    } else if (A == "--pass-order") {
      O.PassOrder = Next();
      O.HasOptimize = true;
    } else if (A == "--tune-config") {
      O.TuneConfigFile = Next();
      O.HasOptimize = true;
    } else if (A == "--weights") {
      std::string V = Next();
      if (V != "static" && V != "profile")
        usage();
      O.WeightsSource = V;
    } else if (A == "--opt-report") {
      O.OptReportFile = Next();
    } else if (A == "--emit-c") {
      O.EmitCFile = Next();
    } else if (A == "--native-diff") {
      O.NativeDiffFile = Next();
    } else if (A == "--native-timing") {
      O.NativeTiming = true;
    } else if (A == "--dump-suite-program") {
      O.DumpSuiteProgram = Next();
      O.Action = "--dump-suite-program";
    } else if (A == "--help") {
      out(helpText());
      std::exit(0);
    } else if (A == "--emit-profile") {
      O.EmitProfile = Next();
    } else if (A == "--score-profile") {
      O.ScoreProfile = Next();
    } else if (A == "--trace") {
      O.TraceFile = Next();
    } else if (A == "--log") {
      O.LogFile = Next();
    } else if (A == "--report") {
      O.ReportFile = Next();
    } else if (A == "--accuracy-report") {
      O.AccuracyReportFile = Next();
    } else if (A == "--validate-json") {
      O.ValidateJsonFile = Next();
      O.Action = "--validate-json";
    } else if (A == "--explain") {
      O.Explain = true;
    } else if (A == "--stats") {
      O.Stats = true;
    } else if (A == "--stats-format") {
      std::string V = Next();
      if (V != "table" && V != "prom")
        usage();
      O.StatsProm = V == "prom";
      O.Stats = true; // implies --stats
    } else if (!A.empty() && A[0] == '-') {
      unknownOption(A);
    } else {
      O.File = A;
    }
  }
  if (O.File.empty() && O.Action != "--suite" &&
      O.Action != "--validate-json" &&
      O.Action != "--dump-suite-program")
    usage();
  return O;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    out("sestc: cannot open '" + Path + "'\n");
    std::exit(1);
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

bool writeTextFile(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path);
  if (!Out) {
    out("sestc: cannot write '" + Path + "'\n");
    return false;
  }
  Out << Content;
  return true;
}

/// Computes the accuracy attribution of \p E against \p P and emits
/// whatever the flags asked for: the annotated listing plus WORST-n
/// tables (--explain) and/or the JSON document (--accuracy-report).
int emitAccuracy(const Options &O, const std::string &Source,
                 const AstContext &Ctx, const CfgModule &Cfgs,
                 const CallGraph &CG, const ProgramEstimate &E,
                 const Profile &P) {
  obs::AccuracyReport Rep =
      obs::computeAccuracy(Ctx.unit(), Cfgs, CG, E, P, O.Est);
  Rep.ProgramHash = hashHex(contentHash64(Source));
  if (O.Explain) {
    out("\n-- annotated listing (estimated vs actual) --\n" +
        obs::renderAnnotatedListing(Source, Rep));
    out("\n" + obs::renderAccuracySummary(Rep));
    out("\n" + obs::renderWorstTables(Rep, 5));
  }
  if (!O.AccuracyReportFile.empty()) {
    if (!writeTextFile(O.AccuracyReportFile,
                       obs::accuracyReportJson({Rep})))
      return 1;
    out("accuracy report written to " + O.AccuracyReportFile + "\n");
  }
  return 0;
}

/// --validate-json: round-trip a file through the project JSON parser.
/// Falls back to line-delimited mode for JSONL documents (e.g. the
/// --log event stream): every non-empty line must parse on its own.
int runValidateJson(const std::string &Path) {
  std::string Text = readFile(Path);
  if (parseJson(Text)) {
    out(Path + ": valid JSON\n");
    return 0;
  }
  size_t Records = 0, LineNo = 0, Pos = 0;
  while (Pos <= Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ++LineNo;
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    if (!parseJson(Line)) {
      // Echo the offending record (truncated) so the failing line can
      // be found without opening the file at the reported number.
      std::string Snippet = Line.substr(0, 60);
      if (Line.size() > 60)
        Snippet += "...";
      out("sestc: '" + Path + "' is neither valid JSON nor valid JSONL"
          " (line " + std::to_string(LineNo) + " does not parse)\n" +
          Path + ":" + std::to_string(LineNo) + ": " + Snippet + "\n");
      return 1;
    }
    ++Records;
  }
  if (Records == 0) {
    out("sestc: '" + Path + "' is not valid JSON\n");
    return 1;
  }
  out(Path + ": valid JSONL (" + std::to_string(Records) +
      " records)\n");
  return 0;
}

/// Live state for the single-file optimize pass observer: everything the
/// per-pass printer needs beyond the PassContext itself.
struct OptimizePrintState {
  const RunResult *Base = nullptr;
  ProgramInput In;
  InterpOptions Interp;
  double IdentityCost = 0.0;
  int Rc = 0;
};

/// Pipeline observer: prints each pass's decisions at the moment the
/// pass completes — layout on whatever CFG the pass saw, inlining with
/// its differential verification, function order with its locality cost.
void printOptimizePass(const opt::Pass &P, const opt::PassContext &PC,
                       void *StateV) {
  OptimizePrintState &St = *static_cast<OptimizePrintState *>(StateV);
  const TranslationUnit &Unit = PC.Unit;
  switch (P.kind()) {
  case opt::PassKind::Layout: {
    out("\n-- block layout (| marks the cold-outline boundary) --\n");
    TextTable T;
    T.setHeader({"Function", "Order", "Chains", "Cold"});
    for (const FunctionDecl *F : Unit.Functions) {
      if (!F->isDefined())
        continue;
      const opt::FunctionLayout &FL = PC.Layout.Functions[F->functionId()];
      if (FL.Order.empty() ||
          (FL.isIdentity() && FL.FirstColdPos == FL.Order.size()))
        continue;
      std::string OrderStr;
      for (size_t I = 0; I < FL.Order.size(); ++I) {
        if (I)
          OrderStr += ' ';
        if (I == FL.FirstColdPos)
          OrderStr += "| ";
        OrderStr += std::to_string(FL.Order[I]);
      }
      T.addRow({F->name(), OrderStr, std::to_string(FL.NumChains),
                std::to_string(FL.Order.size() - FL.FirstColdPos)});
    }
    out(T.str());
    if (!PC.HasInline) {
      // The CFG still matches the baseline profile: reclassify the real
      // counters under the new order.
      const ProgramBlockOrder Order = PC.Layout.blockOrder();
      const LayoutCostCounters C = opt::reclassifyLayoutCost(
          Unit, PC.Cfgs, St.Base->TheProfile, &Order, St.Base->LayoutCost);
      const double Saved = St.IdentityCost > 0
                               ? (St.IdentityCost - C.cost()) /
                                     St.IdentityCost
                               : 0.0;
      out("layout cost on this input: " + formatDouble(C.cost(), 0) +
          " vs identity " + formatDouble(St.IdentityCost, 0) + " (" +
          formatPercent(Saved) + " saved)\n");
    } else {
      // Inlining already reshaped the CFG; the baseline profile no
      // longer lines up block-for-block, so report the analytic
      // prediction under the extended weights instead.
      out("layout cost (predicted, post-inline weights): " +
          formatDouble(opt::predictedLayoutCost(Unit, PC.Cfgs, PC.CG,
                                                PC.W, &PC.Layout),
                       0) +
          "\n");
    }

    opt::BranchHints H = opt::computeBranchHints(Unit, PC.Cfgs, PC.W);
    out("never-predicted-taken arcs: " +
        std::to_string(H.NeverTaken.size()) + "\n");
    for (const opt::BranchHints::ColdArc &A : H.NeverTaken)
      out("  " + Unit.Functions[A.Fid]->name() + ": block " +
          std::to_string(A.Block) + " slot " + std::to_string(A.Slot) +
          "\n");
    break;
  }
  case opt::PassKind::Inline: {
    out("\n-- inlining --\n");
    if (PC.LastInlinePlan.Sites.empty()) {
      out("no call sites selected\n");
      break;
    }
    TextTable T;
    T.setHeader({"Site", "Caller", "Callee", "Line", "Weight"});
    for (const opt::InlineDecision &D : PC.LastInlinePlan.Sites)
      T.addRow({std::to_string(D.CallSiteId), D.Caller->name(),
                D.Callee->name(), std::to_string(D.Site->loc().Line),
                formatDouble(D.Weight, 3)});
    out(T.str());
    RunResult Inl = runProgram(Unit, PC.Cfgs, St.In, St.Interp);
    opt::InlineVerifyResult V =
        opt::compareInlinedRun(*St.Base, Inl, PC.Inlined);
    if (!V.Match) {
      out("inline verification FAILED: " + V.Detail + "\n");
      St.Rc = 1;
    } else {
      out("inline verification: ok (output and mapped profile "
          "identical)\n");
      out("dynamic calls removed on this input: " +
          std::to_string(St.Base->LayoutCost.Calls -
                         Inl.LayoutCost.Calls) +
          "; cost " + formatDouble(Inl.LayoutCost.cost(), 0) +
          " vs identity " + formatDouble(St.IdentityCost, 0) + "\n");
    }
    break;
  }
  case opt::PassKind::FuncOrder: {
    out("\n-- function order (call-arc chaining) --\n");
    if (PC.FuncOrder.isIdentity()) {
      out("identity order kept (" +
          std::to_string(PC.FuncOrder.NumChains) + " chains)\n");
    } else {
      std::string OrderStr;
      for (uint32_t Fid : PC.FuncOrder.Order) {
        const FunctionDecl *F = Unit.Functions[Fid];
        if (!F->isDefined() || F->isBuiltin())
          continue;
        if (!OrderStr.empty())
          OrderStr += ' ';
        OrderStr += F->name();
      }
      out("order: " + OrderStr + " (" +
          std::to_string(PC.FuncOrder.NumChains) + " chains)\n");
    }
    const double Identity = opt::functionOrderCost(
        Unit, PC.CG, PC.W, opt::identityFunctionOrder(Unit));
    const double Cost =
        opt::functionOrderCost(Unit, PC.CG, PC.W, PC.FuncOrder);
    out("call locality cost: " + formatDouble(Cost, 0) +
        " vs identity " + formatDouble(Identity, 0) + "\n");
    break;
  }
  }
}

/// Single-file optimize: resolve the pass pipeline (--tune-config FILE >
/// --pass-order LIST > the canned --optimize set), print each pass's
/// decisions under the chosen weight source (--weights static|profile),
/// apply them, and verify/score against the identity baseline run. The
/// canned sets print bit-identically to the pre-pipeline plumbing.
int runOptimize(const Options &O, AstContext &Ctx, CfgModule &Cfgs,
                const CallGraph &CG, const ProgramEstimate &E) {
  const TranslationUnit &Unit = Ctx.unit();

  // Resolve the configuration first so a bad one fails before any run.
  opt::TuneConfig Config;
  bool Custom = true;
  std::string Err;
  if (!O.TuneConfigFile.empty()) {
    if (!opt::TuneConfig::fromJson(readFile(O.TuneConfigFile), Config,
                                   &Err)) {
      out("sestc: bad tune config '" + O.TuneConfigFile + "': " + Err +
          "\n");
      return 1;
    }
    if (!O.PassOrder.empty() &&
        !opt::TuneConfig::parseOrderString(O.PassOrder, Config.Order,
                                           &Err)) {
      out("sestc: bad --pass-order: " + Err + "\n");
      return 1;
    }
  } else if (!O.PassOrder.empty()) {
    if (!opt::TuneConfig::parseOrderString(O.PassOrder, Config.Order,
                                           &Err)) {
      out("sestc: bad --pass-order: " + Err + "\n");
      return 1;
    }
  } else {
    Custom = false;
    opt::TuneConfig::canned(opt::optPassSetName(O.Optimize), Config);
  }

  OptimizePrintState St;
  St.In.Text = O.Input;
  St.In.RandSeed = O.Seed;
  St.Interp.Engine = O.Engine;

  // The identity-layout baseline: the cost yardstick, the profile
  // behind --weights profile, and the inliner's differential reference.
  RunResult Base = runProgram(Unit, Cfgs, St.In, St.Interp);
  if (!Base.Ok) {
    out("sestc: baseline run failed: " + Base.Error + "\n");
    return 1;
  }
  St.Base = &Base;
  St.IdentityCost = Base.LayoutCost.cost();

  opt::WeightSource W =
      O.WeightsSource == "profile"
          ? opt::weightsFromProfile(Unit, Base.TheProfile)
          : opt::weightsFromEstimate(Unit, Cfgs, E, O.Est);
  if (Custom)
    out("Optimizer pipeline '" + Config.orderString() + "' with " +
        W.Origin + " weights:\n");
  else
    out("Optimizer pass set '" +
        std::string(opt::optPassSetName(O.Optimize)) + "' with " +
        W.Origin + " weights:\n");

  const opt::Pipeline Pipe(Config);
  opt::PipelineResult PR = Pipe.run(Ctx, Cfgs, CG, std::move(W),
                                    printOptimizePass, &St);

  // Custom pipelines can sequence passes in any order; close with the
  // whole-pipeline verification the per-pass sections cannot do.
  if (Custom) {
    ProgramBlockOrder Order;
    InterpOptions Final = St.Interp;
    if (PR.HasLayout) {
      Order = PR.Layout.blockOrder();
      Final.Layout = &Order;
    }
    const RunResult Tuned = runProgram(Unit, Cfgs, St.In, Final);
    const opt::InlineVerifyResult V =
        opt::compareInlinedRun(Base, Tuned, PR.Inlined);
    if (!V.Match) {
      out("pipeline verification FAILED: " + V.Detail + "\n");
      St.Rc = 1;
    } else {
      out("\npipeline verification: ok; final cost on this input: " +
          formatDouble(Tuned.LayoutCost.cost(), 0) + " vs identity " +
          formatDouble(St.IdentityCost, 0) + "\n");
    }
  }
  return St.Rc;
}

/// --suite --native-diff: run the whole suite under all three engines
/// and compare every (program, input) bitwise — profiles, steps, exit
/// codes and resource high-water marks. The document contains no
/// wall-clock fields, so it is byte-identical across --jobs values;
/// CI diffs the --jobs 8 and --jobs 1 files directly. Returns the
/// process exit code (mismatches are errors; a missing host C compiler
/// is not — the document then records available=false).
int runNativeDiff(const Options &O) {
  JsonWriter W;
  W.beginObject();
  W.member("schema", "sest-native-diff/1");
  std::string Why;
  const bool Available = backend::nativeEngineAvailable(&Why);
  W.member("available", Available);
  if (!Available) {
    W.member("reason", Why);
    W.member("all_match", true);
    W.endObject();
    if (!writeTextFile(O.NativeDiffFile, W.take()))
      return 1;
    out("native diff skipped (" + Why + "); written to " +
        O.NativeDiffFile + "\n");
    return 0;
  }

  const InterpEngine Engines[3] = {
      InterpEngine::Ast, InterpEngine::Bytecode, InterpEngine::Native};
  std::vector<CompiledSuiteProgram> Runs[3];
  for (int E = 0; E < 3; ++E) {
    InterpOptions IO;
    IO.Engine = Engines[E];
    Runs[E] = compileAndProfileSuite(IO, O.Jobs);
  }

  bool AllMatch = true;
  uint64_t InputsCompared = 0;
  W.key("programs").beginArray();
  for (size_t P = 0; P < Runs[0].size(); ++P) {
    const CompiledSuiteProgram &RA = Runs[0][P];
    const CompiledSuiteProgram &RB = Runs[1][P];
    const CompiledSuiteProgram &RN = Runs[2][P];
    W.beginObject();
    W.member("name", RA.Spec ? RA.Spec->Name : "?");
    std::string Detail;
    if (!RA.Ok || !RB.Ok || !RN.Ok) {
      Detail = "run failed: ast='" + RA.Error + "' bytecode='" +
               RB.Error + "' native='" + RN.Error + "'";
    } else if (RA.Profiles.size() != RN.Profiles.size() ||
               RB.Profiles.size() != RN.Profiles.size()) {
      Detail = "input counts differ";
    } else {
      for (size_t I = 0; I < RA.Profiles.size() && Detail.empty();
           ++I) {
        ++InputsCompared;
        const SuiteRunStats &SA = RA.RunStats[I];
        const SuiteRunStats &SB = RB.RunStats[I];
        const SuiteRunStats &SN = RN.RunStats[I];
        if (SA.Steps != SN.Steps || SB.Steps != SN.Steps ||
            SA.Cycles != SN.Cycles || SB.Cycles != SN.Cycles ||
            SA.HeapCellsHighWater != SN.HeapCellsHighWater ||
            SA.CallDepthHighWater != SN.CallDepthHighWater ||
            SA.ExitCode != SN.ExitCode)
          Detail = SA.InputName + ": run stats differ";
        else if (!profilesIdentical(RA.Profiles[I], RN.Profiles[I]))
          Detail = SA.InputName + ": ast vs native profile differs";
        else if (!profilesIdentical(RB.Profiles[I], RN.Profiles[I]))
          Detail = SA.InputName + ": bytecode vs native profile differs";
      }
    }
    const bool Match = Detail.empty();
    W.member("match", Match);
    if (!Match) {
      W.member("detail", Detail);
      AllMatch = false;
    }
    W.endObject();
  }
  W.endArray();
  W.member("programs_compared", static_cast<uint64_t>(Runs[0].size()));
  W.member("inputs_compared", InputsCompared);
  W.member("all_match", AllMatch);
  W.endObject();
  if (!writeTextFile(O.NativeDiffFile, W.take()))
    return 1;
  out("native diff written to " + O.NativeDiffFile + " (" +
      std::to_string(InputsCompared) + " inputs, " +
      (AllMatch ? "all match" : "MISMATCH") + ")\n");
  return AllMatch ? 0 : 1;
}

/// --suite: compile and profile every built-in benchmark program,
/// print a summary table, and optionally write the JSON suite report.
int runSuite(const Options &O) {
  if (!O.NativeDiffFile.empty())
    return runNativeDiff(O);

  InterpOptions Interp;
  Interp.Engine = O.Engine;
  std::vector<CompiledSuiteProgram> Programs =
      compileAndProfileSuite(Interp, O.Jobs);

  // --log without the optimizer actions: run a serial decision pass
  // (estimate -> static weights -> layout/hints/inline plan) so the
  // event log always carries optimizer provenance. The pass is
  // read-only and single-threaded, and its inputs (static estimates)
  // are engine- and jobs-independent, so the log is byte-stable. With
  // --optimize/--opt-report the richer three-origin scoring pass emits
  // the events instead.
  if (!O.LogFile.empty() && !O.HasOptimize && O.OptReportFile.empty() &&
      obs::eventLogActive()) {
    obs::ScopedPhase DecisionPhase("suite.decisions");
    EstimatorOptions Est = O.Est;
    Est.Jobs = 1;
    for (const CompiledSuiteProgram &P : Programs) {
      if (!P.Ok || P.Profiles.empty())
        continue;
      obs::logEvent("program.begin", obs::provProgram(P.Spec->Name));
      ProgramEstimate E =
          estimateProgram(P.unit(), *P.Cfgs, *P.CG, Est);
      opt::WeightSource W =
          opt::weightsFromEstimate(P.unit(), *P.Cfgs, E, Est);
      opt::computeBlockLayout(P.unit(), *P.Cfgs, W);
      opt::computeBranchHints(P.unit(), *P.Cfgs, W);
      opt::planInlining(P.unit(), *P.Cfgs, *P.CG, W);
    }
  }

  TextTable T;
  T.setHeader({"Program", "Status", "Compile ms", "Runs", "Steps",
               "Run ms"});
  bool AllOk = true;
  for (const CompiledSuiteProgram &P : Programs) {
    uint64_t Steps = 0;
    double WallMs = 0.0;
    for (const SuiteRunStats &S : P.RunStats) {
      Steps += S.Steps;
      WallMs += S.WallMs;
    }
    T.addRow({P.Spec ? P.Spec->Name : "?", P.Ok ? "ok" : "FAILED",
              formatDouble(P.CompileMs, 2),
              std::to_string(P.RunStats.size()),
              std::to_string(Steps), formatDouble(WallMs, 2)});
    AllOk = AllOk && P.Ok;
  }
  out(T.str());
  for (const CompiledSuiteProgram &P : Programs)
    if (!P.Ok)
      out("error: " + P.Error + "\n");

  if (!O.ReportFile.empty()) {
    if (!writeTextFile(O.ReportFile,
                       suiteReportJson(Programs, O.Engine, O.Jobs)))
      return 1;
    out("suite report written to " + O.ReportFile + "\n");
  }
  if (!O.AccuracyReportFile.empty()) {
    if (!writeTextFile(O.AccuracyReportFile,
                       suiteAccuracyReportJson(Programs, 20, O.Jobs)))
      return 1;
    out("accuracy report written to " + O.AccuracyReportFile + "\n");
  }

  // --optimize / --opt-report: score the optimizer passes three ways
  // (static / profile / oracle weights) over the whole suite.
  if (O.HasOptimize || !O.OptReportFile.empty()) {
    opt::OptReportOptions OR;
    OR.Passes = O.Optimize;
    OR.Est = O.Est;
    OR.Engine = O.Engine;
    OR.Jobs = O.Jobs;
    OR.MeasureNative = O.NativeTiming;
    opt::OptSuiteReport Rep = opt::computeOptReport(Programs, OR);

    TextTable T;
    std::vector<std::string> Header = {"Program", "Identity cost",
                                       "Static", "Profile", "Oracle",
                                       "Inline ok"};
    if (O.NativeTiming)
      Header.push_back("Native ms (layout/identity)");
    T.setHeader(Header);
    for (const opt::OptProgramReport &P : Rep.Programs) {
      if (!P.Ok) {
        std::vector<std::string> Row = {P.Name, "-", "-", "-", "-", "-"};
        if (O.NativeTiming)
          Row.push_back("-");
        T.addRow(Row);
        continue;
      }
      auto Red = [&P](const char *Src) -> std::string {
        for (const opt::LayoutSourceResult &L : P.Layout)
          if (L.Source == Src)
            return formatPercent(L.Reduction);
        return "-";
      };
      std::string InlOk = P.Inline.empty() ? "-" : "yes";
      for (const opt::InlineSourceResult &I : P.Inline)
        if (!I.Verified)
          InlOk = "NO";
      std::vector<std::string> Row = {
          P.Name, formatDouble(P.IdentityCost, 0), Red("static"),
          Red("profile"), Red("oracle"), InlOk};
      if (O.NativeTiming)
        Row.push_back(
            P.Native.Available
                ? formatDouble(P.Native.LayoutWallMs, 2) + "/" +
                      formatDouble(P.Native.IdentityWallMs, 2) +
                      (P.Native.ProfilesMatch && P.Native.LayoutCostMatch
                           ? ""
                           : " MISMATCH")
                : "unavailable");
      T.addRow(Row);
    }
    out("\n-- optimizer (" +
        std::string(opt::optPassSetName(O.Optimize)) + ") --\n" +
        T.str());
    if (O.Optimize != opt::OptPassSet::Inline) {
      out("static recovery ratio: " +
          formatDouble(Rep.StaticRecoveryRatio, 3) +
          (Rep.MeetsRecoveryFloor ? " (meets " : " (BELOW ") +
          formatDouble(OR.StaticRecoveryFloor, 2) + " floor)\n");
      if (!Rep.AllCrossChecksOk) {
        out("error: a layout VM cross-check failed\n");
        AllOk = false;
      }
    }
    if (O.Optimize != opt::OptPassSet::Layout && !Rep.AllInlineVerified) {
      out("error: an inline differential verification failed\n");
      AllOk = false;
    }
    if (O.NativeTiming)
      for (const opt::OptProgramReport &P : Rep.Programs)
        if (P.Ok && P.Native.Available &&
            (!P.Native.ProfilesMatch || !P.Native.LayoutCostMatch)) {
          out("error: layout-true native binary diverged on " + P.Name +
              "\n");
          AllOk = false;
        }
    if (!O.OptReportFile.empty()) {
      if (!writeTextFile(O.OptReportFile, opt::optReportJson(Rep, OR)))
        return 1;
      out("opt report written to " + O.OptReportFile + "\n");
    }
  }
  return AllOk ? 0 : 1;
}

int runAction(const Options &O) {
  if (O.Action == "--validate-json")
    return runValidateJson(O.ValidateJsonFile);
  if (O.Action == "--dump-suite-program") {
    const SuiteProgram *P = findSuiteProgram(O.DumpSuiteProgram);
    if (!P) {
      std::fputs(concat("sestc: unknown suite program '",
                        O.DumpSuiteProgram, "'",
                        didYouMean(O.DumpSuiteProgram, benchmarkSuite(),
                                   [](const SuiteProgram &P) {
                                     return std::string_view(P.Name);
                                   }),
                        "\n")
                     .c_str(),
                 stderr);
      return 2;
    }
    out(P->Source);
    return 0;
  }
  if (O.Action == "--suite")
    return runSuite(O);

  std::string Source = readFile(O.File);

  AstContext Ctx;
  DiagnosticEngine Diags;
  if (!parseAndAnalyze(Source, Ctx, Diags)) {
    out(O.File + ":\n" + Diags.str() + "\n");
    return 1;
  }
  CfgModule Cfgs = CfgModule::build(Ctx.unit(), Diags);
  CallGraph CG = CallGraph::build(Ctx.unit(), Cfgs);

  if (O.Action == "--ast") {
    for (const FunctionDecl *F : Ctx.unit().Functions) {
      if (!F->isDefined())
        continue;
      AstEstimatorConfig Config;
      Config.Kind = O.Est.Intra == IntraEstimatorKind::Loop
                        ? IntraEstimatorKind::Loop
                        : IntraEstimatorKind::Smart;
      Config.LoopIterations = O.Est.LoopIterations;
      Config.Branch = O.Est.Branch;
      AstFrequencies Freqs = estimateAstFrequencies(F, Config);
      AstPrintOptions PrintOpts;
      PrintOpts.StmtFrequencies = &Freqs.Exec;
      out(printFunctionAst(F, PrintOpts) + "\n");
    }
    return 0;
  }

  if (O.Action == "--cfg") {
    for (const auto &[F, G] : Cfgs.all())
      out(printCfg(*G) + "\n");
    return 0;
  }

  if (O.Action == "--dot") {
    IntraEstimates Intra = computeIntraEstimates(Ctx.unit(), Cfgs, O.Est);
    for (const auto &[F, G] : Cfgs.all())
      out(printCfgDot(*G, &Intra.Blocks[F->functionId()]));
    return 0;
  }

  ProgramEstimate E = estimateProgram(Ctx.unit(), Cfgs, CG, O.Est);

  // --emit-c: lower to the native backend's standalone C and exit.
  // Pure emission — works without a host C compiler. With --optimize
  // (layout/all), the static-estimate layout plan is baked in, so the
  // artifact is the layout-true binary's source; otherwise identity.
  if (!O.EmitCFile.empty()) {
    const bc::BcModule Bc = bc::compileBytecode(Ctx.unit(), Cfgs);
    backend::NativeLayoutPlan Plan;
    if (O.HasOptimize && O.Optimize != opt::OptPassSet::Inline) {
      const opt::WeightSource W =
          opt::weightsFromEstimate(Ctx.unit(), Cfgs, E, O.Est);
      const opt::ProgramLayout PL =
          opt::computeBlockLayout(Ctx.unit(), Cfgs, W);
      Plan.Order = PL.blockOrder();
      Plan.FirstColdPos.reserve(PL.Functions.size());
      for (const opt::FunctionLayout &F : PL.Functions)
        Plan.FirstColdPos.push_back(F.FirstColdPos);
    }
    std::string Err;
    const std::string CSrc = backend::cBackend().emitSource(
        Ctx.unit(), Cfgs, Bc, Plan, &Err);
    if (CSrc.empty()) {
      out("sestc: cannot lower to C: " + Err + "\n");
      return 1;
    }
    if (!writeTextFile(O.EmitCFile, CSrc))
      return 1;
    out("native C source written to " + O.EmitCFile + " (" +
        std::to_string(CSrc.size()) + " bytes)\n");
    return 0;
  }

  if (O.Action == "--callgraph") {
    out(printCallGraphDot(Ctx.unit(), CG, &E.FunctionEstimates));
    return 0;
  }

  if (O.HasOptimize)
    return runOptimize(O, Ctx, Cfgs, CG, E);

  // --score-profile: score the estimate against a saved profile.
  if (!O.ScoreProfile.empty()) {
    std::string Text = readFile(O.ScoreProfile);
    Profile Saved;
    if (!readProfileText(Text, Saved)) {
      out("sestc: '" + O.ScoreProfile + "' is not a profile\n");
      return 1;
    }
    auto Ids = scoredFunctionIds(Ctx.unit());
    out("\nWeight-matching against saved profile '" + O.ScoreProfile +
        "':\n");
    TextTable T;
    T.setHeader({"Cutoff", "Blocks (intra)", "Functions", "Call sites"});
    for (double Cutoff : {0.10, 0.25, 0.50})
      T.addRow({formatPercent(Cutoff, 0),
                formatPercent(intraProceduralScore(E, Saved, Ids, Cutoff)),
                formatPercent(
                    functionInvocationScore(E, Saved, Ids, Cutoff)),
                formatPercent(callSiteScore(E, Saved, Cutoff))});
    out(T.str());
    return emitAccuracy(O, Source, Ctx, Cfgs, CG, E, Saved);
  }


  if (O.Action == "--estimate" || O.Action == "--compare") {
    out("Function invocation estimates:\n");
    TextTable T;
    T.setHeader({"Function", "Estimate"});
    for (const FunctionDecl *F : Ctx.unit().Functions)
      if (F->isDefined())
        T.addRow({F->name(),
                  formatDouble(E.FunctionEstimates[F->functionId()], 3)});
    out(T.str());

    out("\nTop call sites by estimated frequency:\n");
    TextTable S;
    S.setHeader({"Caller", "Callee", "Line", "Estimate"});
    std::vector<const CallSiteInfo *> Sites;
    for (const CallSiteInfo &Site : CG.sites())
      if (!Site.isIndirect())
        Sites.push_back(&Site);
    std::stable_sort(Sites.begin(), Sites.end(),
                     [&E](const CallSiteInfo *A, const CallSiteInfo *B) {
                       return E.CallSiteEstimates[A->CallSiteId] >
                              E.CallSiteEstimates[B->CallSiteId];
                     });
    for (size_t I = 0; I < Sites.size() && I < 12; ++I)
      S.addRow({Sites[I]->Caller->name(), Sites[I]->Callee->name(),
                std::to_string(Sites[I]->Site->loc().Line),
                formatDouble(E.CallSiteEstimates[Sites[I]->CallSiteId],
                             3)});
    out(S.str());
    if (O.Action == "--estimate")
      return 0;
  }

  // --run / --compare: execute.
  ProgramInput In;
  In.Text = O.Input;
  In.RandSeed = O.Seed;
  InterpOptions Interp;
  Interp.Engine = O.Engine;
  RunResult R = runProgram(Ctx.unit(), Cfgs, In, Interp);
  out("\n-- program output --\n" + R.Output);
  if (!R.Ok) {
    out("\nruntime error: " + R.Error + "\n");
    return 1;
  }
  out("\nexit code " + std::to_string(R.ExitCode) + ", " +
      formatDouble(R.TheProfile.TotalCycles, 0) + " simulated cycles\n");
  R.TheProfile.ProgramName = O.File;
  R.TheProfile.InputName = "cli";

  if (!O.EmitProfile.empty()) {
    std::ofstream PF(O.EmitProfile);
    if (!PF) {
      out("sestc: cannot write '" + O.EmitProfile + "'\n");
      return 1;
    }
    PF << writeProfileText(R.TheProfile);
    out("profile written to " + O.EmitProfile + "\n");
  }

  if (O.Action == "--compare") {
    auto Ids = scoredFunctionIds(Ctx.unit());
    out("\nWeight-matching of the static estimate against this run:\n");
    TextTable T;
    T.setHeader({"Cutoff", "Blocks (intra)", "Functions", "Call sites"});
    for (double Cutoff : {0.10, 0.25, 0.50}) {
      T.addRow({formatPercent(Cutoff, 0),
                formatPercent(
                    intraProceduralScore(E, R.TheProfile, Ids, Cutoff)),
                formatPercent(functionInvocationScore(E, R.TheProfile,
                                                      Ids, Cutoff)),
                formatPercent(callSiteScore(E, R.TheProfile, Cutoff))});
    }
    out(T.str());
  }
  return emitAccuracy(O, Source, Ctx, Cfgs, CG, E, R.TheProfile);
}

} // namespace

int main(int argc, char **argv) {
  Options O = parseArgs(argc, argv);

  obs::Telemetry Tele;
  obs::EventLog Log;
  bool WantTelemetry =
      !O.TraceFile.empty() || !O.ReportFile.empty() || O.Stats;
  bool WantLog = !O.LogFile.empty();
  if (WantTelemetry)
    Tele.install();
  if (WantLog)
    Log.install();

  int Rc = runAction(O);

  if (WantLog) {
    Log.uninstall();
    if (!writeTextFile(O.LogFile, Log.jsonl()))
      return 1;
    out("event log written to " + O.LogFile + " (" +
        std::to_string(Log.events().size()) + " events)\n");
  }
  if (!WantTelemetry)
    return Rc;
  Tele.uninstall();

  if (O.Stats) {
    if (O.StatsProm) {
      // Machine-readable stats: the same registry, as one Prometheus
      // text exposition (scrape-compatible with sestd's metrics verb).
      out(obs::renderPrometheus(Tele));
    } else {
      out("\n-- phase times --\n" + Tele.phaseSummary());
      out("\n-- counters --\n" + Tele.statsTable());
    }
  }
  if (!O.TraceFile.empty()) {
    if (!writeTextFile(O.TraceFile, Tele.traceJson()))
      return 1;
    out("trace written to " + O.TraceFile +
        " (open in chrome://tracing or https://ui.perfetto.dev)\n");
  }
  if (!O.ReportFile.empty() && O.Action != "--suite") {
    JsonWriter W;
    W.beginObject();
    W.member("schema", "sest-run-report/1");
    W.member("file", O.File);
    W.member("action", O.Action);
    W.key("telemetry");
    Tele.writeReport(W);
    W.endObject();
    if (!writeTextFile(O.ReportFile, W.take()))
      return 1;
    out("report written to " + O.ReportFile + "\n");
  }
  return Rc;
}
