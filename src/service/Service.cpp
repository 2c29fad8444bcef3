//===- service/Service.cpp - The sestd analysis service --------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "backend/Backend.h"
#include "backend/Native.h"
#include "estimators/Pipeline.h"
#include "interp/Interp.h"
#include "interp/bytecode/BytecodeCompiler.h"
#include "lang/Parser.h"
#include "metrics/Evaluation.h"
#include "obs/EventLog.h"
#include "obs/Export.h"
#include "obs/Parallel.h"
#include "obs/Telemetry.h"
#include "opt/Inline.h"
#include "opt/Layout.h"
#include "opt/WeightSource.h"
#include "support/Diagnostics.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "tune/Tune.h"

#include <chrono>
#include <cmath>

using namespace sest;
using namespace sest::service;

//===----------------------------------------------------------------------===//
// Cache set
//===----------------------------------------------------------------------===//

CacheSet::CacheSet(size_t BudgetBytes, unsigned Shards)
    : Sources(Shards, /*Digests=*/true), Fields(Shards),
      Ast("ast", BudgetBytes / 6, Shards),
      Cfg("cfg", BudgetBytes / 6, Shards),
      Branch("branch", BudgetBytes / 6, Shards),
      Solve("solve", BudgetBytes / 6, Shards),
      Native("native", BudgetBytes / 6, Shards),
      Response("response", BudgetBytes / 6, Shards) {}

std::vector<const ShardedCache *> CacheSet::all() const {
  return {&Ast, &Cfg, &Branch, &Solve, &Native, &Response};
}

//===----------------------------------------------------------------------===//
// Cached artifacts
//===----------------------------------------------------------------------===//

namespace {

/// Tier "ast": one parsed + analyzed program. Immutable after build;
/// Ok=false entries (parse errors) are cached too — rejecting a program
/// is as deterministic as accepting it.
struct AstArtifact {
  AstContext Ctx;
  std::string DiagText; ///< Rendered diagnostics (empty when clean).
  bool Ok = false;
};

/// Tier "cfg": CFGs + call graph. Both point into the AST arena, so the
/// artifact co-owns its AST entry — evicting the ast tier can never
/// dangle a resident cfg entry.
struct CfgArtifact {
  std::shared_ptr<const AstArtifact> Ast;
  CfgModule Cfgs;
  CallGraph CG;
};

/// Tier "branch": one prediction table per function id.
using BranchArtifact = std::vector<FunctionBranchPredictions>;

/// Tier "native": one loaded compile-to-C artifact, or the diagnostic
/// explaining why the program has none (no host compiler, lowering
/// failure). Failures are cached like parse errors — deterministic
/// rejections should be as cheap warm as acceptances.
struct NativeEntry {
  std::shared_ptr<const sest::backend::NativeArtifact> Artifact;
  std::string Error; ///< Set when Artifact is null.
};

} // namespace

namespace sest::service::detail {

/// The request options the protocol exposes. Everything that can vary
/// here is framed into the cache keys (addFields / addBranchFields), so
/// two requests differing in any knob can never alias an artifact.
struct RequestOptions {
  EstimatorOptions Est;

  HashBuilder &addFields(HashBuilder &K) const {
    K.addU64(static_cast<uint64_t>(Est.Intra))
        .addU64(static_cast<uint64_t>(Est.Inter))
        .addU64(static_cast<uint64_t>(Est.MarkovIntra_.Solver));
    return addBranchFields(K);
  }

  /// The subset of knobs that influence branch prediction — the branch
  /// tier is shared between configurations that differ only in, say,
  /// the inter-procedural estimator.
  HashBuilder &addBranchFields(HashBuilder &K) const {
    return K.addDouble(Est.LoopIterations)
        .addDouble(Est.Branch.TakenProbability)
        .addBool(Est.Branch.UseConstantLoopBounds);
  }
};

/// One op of the protocol, with the names of its per-op series spelled
/// out, so recording them builds no string.
struct OpInfo {
  std::string_view Name;
  bool NeedsSource;
  /// Control ops answer from live service state instead of the analysis
  /// pipeline; handleBatch runs them on the intake thread between
  /// parallel sub-batches so their answers see a fully merged registry.
  bool Control;
  std::string_view RequestsCounter;
  std::string_view LatencyHistogram;
};

constexpr OpInfo Ops[] = {
    {"parse", true, false, "service.requests.parse",
     "service.request_us.parse"},
    {"estimate", true, false, "service.requests.estimate",
     "service.request_us.estimate"},
    {"optimize", true, false, "service.requests.optimize",
     "service.request_us.optimize"},
    {"report", true, false, "service.requests.report",
     "service.request_us.report"},
    {"tune", true, false, "service.requests.tune",
     "service.request_us.tune"},
    {"stats", false, true, "service.requests.stats",
     "service.request_us.stats"},
    {"metrics", false, true, "service.requests.metrics",
     "service.request_us.metrics"},
    {"health", false, true, "service.requests.health",
     "service.request_us.health"},
    {"shutdown", false, true, "service.requests.shutdown",
     "service.request_us.shutdown"},
};

/// One decoded request line.
struct Request {
  std::string Op;
  const OpInfo *Info = nullptr; ///< Null for an unknown op.
  bool HasId = false;
  double Id = 0;
  /// The decoded source, interned once at decode: every tier key holds
  /// it, and its stored FNV-1a digest is the program_hash.
  InternRef Src;
  RequestOptions Opts;
  bool Blocks = false;      ///< estimate: include per-block estimates
  std::string Passes = "all"; ///< optimize: layout | inline | all
  std::string Input;        ///< report/tune: bytes the program reads
  uint64_t Seed = 1;        ///< report: rand() seed; tune: search seed
  std::string Engine = "ast"; ///< report: ast | bytecode | native
  uint32_t Budget = 8;      ///< tune: configs evaluated per oracle
  std::string Oracles = "static,profile"; ///< tune: comma-separated
  std::string Scope = "live"; ///< metrics: live | deterministic
  std::string Error;        ///< non-empty -> ok:false response
  /// Intake ordinal: span provenance ("req:<N>"), assigned in request
  /// order on the intake thread.
  uint64_t Ordinal = 0;
};

} // namespace sest::service::detail

namespace {

using sest::service::detail::OpInfo;
using sest::service::detail::Ops;
using sest::service::detail::Request;
using sest::service::detail::RequestOptions;

bool isControlOp(const Request &R) {
  return R.Error.empty() && R.Info->Control;
}

bool parseEstimatorOptions(const JsonValue &V, RequestOptions &O,
                           std::string &Error) {
  for (const auto &[K, Val] : V.Members) {
    if ((K == "intra" || K == "inter" || K == "solver") && !Val.isString()) {
      Error = "option '" + K + "' must be a string";
      return false;
    }
    if (K == "intra") {
      if (!parseIntraEstimator(Val.StringVal, O.Est.Intra)) {
        Error = "unknown intra estimator '" + Val.StringVal + "'";
        return false;
      }
    } else if (K == "inter") {
      if (!parseInterEstimator(Val.StringVal, O.Est.Inter)) {
        Error = "unknown inter estimator '" + Val.StringVal + "'";
        return false;
      }
    } else if (K == "solver") {
      if (Val.StringVal == "sparse")
        O.Est.setSolver(MarkovSolverKind::Sparse);
      else if (Val.StringVal == "dense")
        O.Est.setSolver(MarkovSolverKind::Dense);
      else {
        Error = "unknown solver '" + Val.StringVal + "'";
        return false;
      }
    } else if (K == "loop_iterations") {
      if (!Val.isNumber() || Val.NumberVal < 1.0) {
        Error = "loop_iterations must be a number >= 1";
        return false;
      }
      O.Est.setLoopIterations(Val.NumberVal);
    } else if (K == "taken_probability") {
      if (!Val.isNumber() || Val.NumberVal <= 0.0 ||
          Val.NumberVal >= 1.0) {
        Error = "taken_probability must be a number in (0, 1)";
        return false;
      }
      O.Est.Branch.TakenProbability = Val.NumberVal;
    } else if (K == "constant_loop_bounds") {
      if (!Val.isBool()) {
        Error = "option 'constant_loop_bounds' must be a boolean";
        return false;
      }
      O.Est.Branch.UseConstantLoopBounds = Val.BoolVal;
      O.Est.MarkovIntra_.Branch.UseConstantLoopBounds = Val.BoolVal;
    } else {
      // Unknown knobs are rejected, not ignored: a silently dropped
      // option would alias two different configurations onto one cache
      // key.
      Error = "unknown option '" + K + "'";
      return false;
    }
  }
  return true;
}

/// The request fields of the protocol and the JSON type of each. A
/// field outside this table, or of another type, gets an in-band error:
/// a value dropped on the floor would answer a request the client did not
/// send. `seed` and `budget` are checked by their integer readers.
struct FieldType {
  std::string_view Name;
  JsonValue::Kind Kind;
  const char *Expected; ///< Null: checked by the field's own reader.
};

constexpr FieldType RequestFields[] = {
    {"op", JsonValue::Kind::String, "a string"},
    {"id", JsonValue::Kind::Number, "a number"},
    {"source", JsonValue::Kind::String, "a string"},
    {"options", JsonValue::Kind::Object, "an object"},
    {"blocks", JsonValue::Kind::Bool, "a boolean"},
    {"passes", JsonValue::Kind::String, "a string"},
    {"input", JsonValue::Kind::String, "a string"},
    {"seed", JsonValue::Kind::Number, nullptr},
    {"engine", JsonValue::Kind::String, "a string"},
    {"budget", JsonValue::Kind::Number, nullptr},
    {"oracles", JsonValue::Kind::String, "a string"},
    {"scope", JsonValue::Kind::String, "a string"},
};

bool checkFieldTypes(const JsonValue &Doc, std::string &Error) {
  for (const auto &[Key, Val] : Doc.Members) {
    const FieldType *Field = nullptr;
    for (const FieldType &F : RequestFields)
      if (F.Name == Key)
        Field = &F;
    if (!Field) {
      Error = "unknown field '" + Key + "'";
      return false;
    }
    if (Field->Expected && Val.K != Field->Kind) {
      Error = "'" + Key + "' must be " + Field->Expected;
      return false;
    }
  }
  return true;
}

Request parseRequest(const std::string &Line, InternTable &Sources) {
  Request R;
  std::optional<JsonValue> Doc = parseJson(Line);
  if (!Doc || !Doc->isObject()) {
    R.Error = "request is not a JSON object";
    return R;
  }
  // The envelope of any error echoes the id and the op when they are
  // well-typed.
  if (const JsonValue *Id = Doc->find("id"); Id && Id->isNumber()) {
    R.HasId = true;
    R.Id = Id->NumberVal;
  }
  const JsonValue *Op = Doc->find("op");
  if (Op && Op->isString())
    R.Op = Op->StringVal;
  if (!checkFieldTypes(*Doc, R.Error))
    return R;
  if (!Op) {
    R.Error = "missing string field 'op'";
    return R;
  }
  for (const OpInfo &Info : Ops)
    if (Info.Name == R.Op)
      R.Info = &Info;
  if (!R.Info) {
    R.Error = "unknown op '" + R.Op + "'";
    return R;
  }
  uint64_t Budget = R.Budget;
  if (!readIntegerField(*Doc, "seed", 0.0, 0x1p64, "[0, 2^64)", R.Seed,
                        R.Error) ||
      !readIntegerField(*Doc, "budget", 1.0, 0x1p32, "[1, 2^32)", Budget,
                        R.Error))
    return R;
  R.Budget = static_cast<uint32_t>(Budget);
  if (!R.Info->NeedsSource) {
    if (const JsonValue *S = Doc->find("scope"); S && R.Op == "metrics") {
      if (S->StringVal != "live" && S->StringVal != "deterministic") {
        R.Error = "metrics scope must be 'live' or 'deterministic'";
        return R;
      }
      R.Scope = S->StringVal;
    }
    return R;
  }
  JsonValue *Source = Doc->find("source");
  if (!Source) {
    R.Error = "missing string field 'source'";
    return R;
  }
  R.Src = Sources.intern(std::move(Source->StringVal));
  if (const JsonValue *Opts = Doc->find("options"))
    if (!parseEstimatorOptions(*Opts, R.Opts, R.Error))
      return R;
  if (const JsonValue *B = Doc->find("blocks"))
    R.Blocks = B->BoolVal;
  if (const JsonValue *P = Doc->find("passes")) {
    R.Passes = P->StringVal;
    if (R.Passes != "layout" && R.Passes != "inline" &&
        R.Passes != "all") {
      R.Error = "unknown passes '" + R.Passes + "'";
      return R;
    }
  }
  if (JsonValue *I = Doc->find("input"))
    R.Input = std::move(I->StringVal);
  if (const JsonValue *E = Doc->find("engine")) {
    if (E->StringVal != "ast" && E->StringVal != "bytecode" &&
        E->StringVal != "native") {
      R.Error = "engine must be 'ast', 'bytecode', or 'native'";
      return R;
    }
    R.Engine = E->StringVal;
  }
  if (R.Op == "tune") {
    // The tuner executes the program itself, so the native engine's
    // separate artifact path does not apply.
    if (R.Engine == "native") {
      R.Error = "tune engine must be 'ast' or 'bytecode'";
      return R;
    }
    if (const JsonValue *O = Doc->find("oracles"))
      R.Oracles = O->StringVal;
    std::string Rest = R.Oracles;
    while (!Rest.empty()) {
      size_t Comma = Rest.find(',');
      std::string Name = Rest.substr(0, Comma);
      Rest = Comma == std::string::npos ? "" : Rest.substr(Comma + 1);
      tune::TuneOracle Oracle;
      if (!tune::parseTuneOracle(Name, Oracle)) {
        R.Error = "unknown oracle '" + Name +
                  "' (expected static|profile|measured)";
        return R;
      }
    }
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Artifact construction (get-or-build per tier)
//===----------------------------------------------------------------------===//

// Byte accounting is approximate: what matters is that charges scale
// with real footprint so the LRU budget means something, not that they
// match malloc to the byte.

size_t astArtifactBytes(const AstArtifact &A) {
  return sizeof(AstArtifact) + A.Ctx.arenaBytes() + A.DiagText.size();
}

/// A cfg entry keeps its AST alive, so it pays for it too, as every
/// tier pays for the source its key holds.
size_t cfgArtifactBytes(const CfgArtifact &A) {
  size_t Bytes = sizeof(CfgArtifact) + astArtifactBytes(*A.Ast);
  for (const auto &[F, G] : A.Cfgs.all()) {
    (void)F;
    Bytes += 64 + G->size() * 96;
  }
  return Bytes;
}

size_t branchArtifactBytes(const BranchArtifact &A) {
  size_t Bytes = sizeof(BranchArtifact) + A.size() * 64;
  for (const FunctionBranchPredictions &P : A) {
    Bytes += P.ByBlock.size() * 64;
    for (const auto &[B, Probs] : P.SwitchProbs) {
      (void)B;
      Bytes += 48 + Probs.size() * sizeof(double);
    }
  }
  return Bytes;
}

size_t estimateBytes(const ProgramEstimate &E) {
  size_t Bytes = sizeof(ProgramEstimate);
  for (const auto &Row : E.BlockEstimates)
    Bytes += 24 + Row.size() * sizeof(double);
  Bytes += (E.FunctionEstimates.size() + E.CallSiteEstimates.size()) *
           sizeof(double);
  for (const FunctionBranchPredictions &P : E.Predictions) {
    Bytes += 64 + P.ByBlock.size() * 64;
    for (const auto &[B, Probs] : P.SwitchProbs) {
      (void)B;
      Bytes += 48 + Probs.size() * sizeof(double);
    }
  }
  return Bytes;
}

/// Inserts \p Value into \p Tier under \p R's source and \p Fields,
/// charging the key's bytes with the value's: a key keeps its source
/// alive, so every tier that holds a source pays for it, and a response
/// key carries the request's whole input. The fields are interned only
/// for a value the tier admits.
void putCharged(CacheSet &Caches, ShardedCache &Tier, const Request &R,
                std::string Fields, std::shared_ptr<const void> Value,
                size_t Bytes) {
  Bytes += R.Src->Bytes.size() + Fields.size();
  if (!Tier.admits(Bytes))
    return;
  Tier.put({R.Src, Caches.Fields.intern(std::move(Fields))}, std::move(Value),
           Bytes);
}

/// Annotates the ambient span of request \p R with one tier outcome.
/// A live observation, like `stats`: hit/miss depends on cache state,
/// so these attributes are outside the byte-determinism contract (the
/// span *structure* — kinds, ordinals, order — is inside it).
void logCacheEvent(const Request &R, std::string_view Tier, bool Hit,
                   size_t Bytes = 0) {
  if (!obs::eventLogActive())
    return;
  std::vector<obs::EventAttr> Attrs{
      obs::attr("tier", Tier), obs::attr("outcome", Hit ? "hit" : "miss")};
  if (!Hit)
    Attrs.push_back(obs::attr("bytes", static_cast<double>(Bytes)));
  obs::logEvent("service.request.cache", obs::provRequest(R.Ordinal),
                std::move(Attrs));
}

std::shared_ptr<const AstArtifact> getOrBuildAst(CacheSet &Caches,
                                                const Request &R) {
  std::string Fields = HashBuilder("ast").take();
  if (auto A = Caches.Ast.getAs<AstArtifact>({R.Src, Fields})) {
    logCacheEvent(R, "ast", true);
    return A;
  }
  auto A = std::make_shared<AstArtifact>();
  {
    obs::ScopedPhase Phase("service.build.ast");
    DiagnosticEngine Diags;
    A->Ok = parseAndAnalyze(R.Src->Bytes, A->Ctx, Diags);
    A->DiagText = Diags.str();
  }
  size_t Bytes = astArtifactBytes(*A);
  logCacheEvent(R, "ast", false, Bytes);
  putCharged(Caches, Caches.Ast, R, std::move(Fields), A, Bytes);
  return A;
}

std::shared_ptr<const CfgArtifact>
getOrBuildCfg(CacheSet &Caches, const Request &R,
              std::shared_ptr<const AstArtifact> Ast) {
  std::string Fields = HashBuilder("cfg").take();
  if (auto A = Caches.Cfg.getAs<CfgArtifact>({R.Src, Fields})) {
    logCacheEvent(R, "cfg", true);
    return A;
  }
  auto A = std::make_shared<CfgArtifact>();
  {
    obs::ScopedPhase Phase("service.build.cfg");
    A->Ast = std::move(Ast);
    DiagnosticEngine Diags; // CFG construction emits no errors on a
                            // program sema accepted.
    A->Cfgs = CfgModule::build(A->Ast->Ctx.unit(), Diags);
    A->CG = CallGraph::build(A->Ast->Ctx.unit(), A->Cfgs);
  }
  size_t Bytes = cfgArtifactBytes(*A);
  logCacheEvent(R, "cfg", false, Bytes);
  putCharged(Caches, Caches.Cfg, R, std::move(Fields), A, Bytes);
  return A;
}

std::shared_ptr<const BranchArtifact>
getOrBuildBranch(CacheSet &Caches, const Request &R,
                 const CfgArtifact &Cfg) {
  const RequestOptions &Opts = R.Opts;
  HashBuilder H("branch");
  std::string Fields = Opts.addBranchFields(H).take();
  if (auto A = Caches.Branch.getAs<BranchArtifact>({R.Src, Fields})) {
    logCacheEvent(R, "branch", true);
    return A;
  }
  auto A = std::make_shared<BranchArtifact>();
  {
    obs::ScopedPhase Phase("service.build.branch");
    const TranslationUnit &Unit = Cfg.Ast->Ctx.unit();
    A->resize(Unit.Functions.size());
    BranchPredictorConfig BC = Opts.Est.Branch;
    BC.LoopIterations = Opts.Est.LoopIterations;
    BranchPredictor Predictor(BC);
    for (const auto &[F, G] : Cfg.Cfgs.all())
      (*A)[F->functionId()] = Predictor.predictFunction(*G);
  }
  size_t Bytes = branchArtifactBytes(*A);
  logCacheEvent(R, "branch", false, Bytes);
  putCharged(Caches, Caches.Branch, R, std::move(Fields), A, Bytes);
  return A;
}

std::shared_ptr<const ProgramEstimate>
getOrBuildSolve(CacheSet &Caches, const Request &R, const CfgArtifact &Cfg,
                const BranchArtifact &Branch) {
  const RequestOptions &Opts = R.Opts;
  HashBuilder H("solve");
  std::string Fields = Opts.addFields(H).take();
  if (auto A = Caches.Solve.getAs<ProgramEstimate>({R.Src, Fields})) {
    logCacheEvent(R, "solve", true);
    return A;
  }
  std::shared_ptr<ProgramEstimate> A;
  {
    obs::ScopedPhase Phase("service.build.solve");
    A = std::make_shared<ProgramEstimate>(estimateProgram(
        Cfg.Ast->Ctx.unit(), Cfg.Cfgs, Cfg.CG, Opts.Est, &Branch));
  }
  size_t Bytes = estimateBytes(*A);
  logCacheEvent(R, "solve", false, Bytes);
  putCharged(Caches, Caches.Solve, R, std::move(Fields), A, Bytes);
  return A;
}

std::shared_ptr<const NativeEntry>
getOrBuildNative(CacheSet &Caches, const Request &R,
                 const CfgArtifact &Cfg) {
  // Keyed by source alone: the service compiles identity-layout
  // artifacts, and the backend folds the layout plan into the generated
  // source (and therefore its own memoization) anyway.
  std::string Fields = HashBuilder("native").take();
  if (auto A = Caches.Native.getAs<NativeEntry>({R.Src, Fields})) {
    logCacheEvent(R, "native", true);
    return A;
  }
  auto A = std::make_shared<NativeEntry>();
  {
    obs::ScopedPhase Phase("service.build.native");
    const TranslationUnit &Unit = Cfg.Ast->Ctx.unit();
    bc::BcModule Bc = bc::compileBytecode(Unit, Cfg.Cfgs);
    A->Artifact =
        backend::cBackend().compile(Unit, Cfg.Cfgs, Bc, {}, &A->Error);
  }
  size_t Bytes = sizeof(NativeEntry) + A->Error.size() +
                 (A->Artifact ? A->Artifact->sourceBytes() : 0);
  logCacheEvent(R, "native", false, Bytes);
  putCharged(Caches, Caches.Native, R, std::move(Fields), A, Bytes);
  return A;
}

//===----------------------------------------------------------------------===//
// Response rendering
//===----------------------------------------------------------------------===//

/// What the response tier memoizes: everything about a response except
/// the per-request envelope (the echoed id). ResultJson is one complete
/// pre-rendered JSON object, spliced into the envelope verbatim — warm
/// responses are byte-identical to cold ones because both go through
/// the same splice.
struct ResponseBody {
  bool Ok = false;
  std::string Error;      ///< Set when !Ok.
  std::string ResultJson; ///< Set when Ok.
};

/// Renders the full response line for \p R around \p Body.
std::string renderEnvelope(const Request &R, const ResponseBody &Body) {
  JsonWriter W;
  W.beginObject();
  W.member("protocol", "sest-service/1");
  if (R.HasId)
    W.member("id", R.Id);
  W.member("op", R.Op);
  W.member("ok", Body.Ok);
  if (R.Src && !R.Src->Bytes.empty())
    W.member("program_hash", hashHex(R.Src->ContentHash));
  if (Body.Ok)
    W.key("result").rawValue(Body.ResultJson);
  else
    W.member("error", Body.Error);
  W.endObject();
  return W.take();
}

std::string renderError(const Request &R, const std::string &Error) {
  ResponseBody Body;
  Body.Error = Error;
  return renderEnvelope(R, Body);
}

std::string parseResultJson(const CfgArtifact &Cfg) {
  const TranslationUnit &Unit = Cfg.Ast->Ctx.unit();
  size_t TotalBlocks = 0;
  JsonWriter W;
  W.beginObject();
  W.key("functions").beginArray();
  for (const auto &[F, G] : Cfg.Cfgs.all()) {
    TotalBlocks += G->size();
    W.beginObject();
    W.member("name", F->name());
    W.member("blocks", static_cast<uint64_t>(G->size()));
    W.endObject();
  }
  W.endArray();
  W.member("total_blocks", static_cast<uint64_t>(TotalBlocks));
  W.member("call_sites", static_cast<uint64_t>(Unit.NumCallSites));
  W.endObject();
  return W.take();
}

std::string estimateResultJson(const Request &R, const CfgArtifact &Cfg,
                               const ProgramEstimate &E) {
  JsonWriter W;
  W.beginObject();
  W.member("intra", intraEstimatorName(R.Opts.Est.Intra));
  W.member("inter", interEstimatorName(R.Opts.Est.Inter));
  W.key("functions").beginArray();
  for (const auto &[F, G] : Cfg.Cfgs.all()) {
    (void)G;
    size_t Fid = F->functionId();
    W.beginObject();
    W.member("name", F->name());
    W.member("invocations", E.FunctionEstimates[Fid]);
    if (R.Blocks) {
      W.key("blocks").beginArray();
      for (double B : E.BlockEstimates[Fid])
        W.value(B);
      W.endArray();
    }
    W.endObject();
  }
  W.endArray();
  W.key("call_sites").beginArray();
  for (double C : E.CallSiteEstimates)
    W.value(C);
  W.endArray();
  W.endObject();
  return W.take();
}

std::string optimizeResultJson(const Request &R, const CfgArtifact &Cfg,
                               const ProgramEstimate &E) {
  const TranslationUnit &Unit = Cfg.Ast->Ctx.unit();
  // The plan must be value-only: InlinePlan and layouts reference AST
  // nodes whose lifetime is the ast tier entry's, so everything is
  // rendered to JSON before it can outlive the artifacts.
  opt::WeightSource Weights =
      opt::weightsFromEstimate(Unit, Cfg.Cfgs, E, R.Opts.Est);
  JsonWriter W;
  W.beginObject();
  W.member("passes", R.Passes);
  W.member("weights", Weights.Origin);
  if (R.Passes == "layout" || R.Passes == "all") {
    opt::ProgramLayout Layout =
        opt::computeBlockLayout(Unit, Cfg.Cfgs, Weights);
    W.key("layout").beginArray();
    for (const auto &[F, G] : Cfg.Cfgs.all()) {
      (void)G;
      const opt::FunctionLayout &FL = Layout.Functions[F->functionId()];
      W.beginObject();
      W.member("name", F->name());
      W.key("order").beginArray();
      for (uint32_t B : FL.Order)
        W.value(B);
      W.endArray();
      W.member("chains", FL.NumChains);
      W.member("first_cold", FL.FirstColdPos);
      W.endObject();
    }
    W.endArray();
    opt::BranchHints Hints =
        opt::computeBranchHints(Unit, Cfg.Cfgs, Weights);
    W.key("never_taken").beginArray();
    for (const opt::BranchHints::ColdArc &A : Hints.NeverTaken) {
      W.beginObject();
      W.member("function", A.Fid);
      W.member("block", A.Block);
      W.member("slot", A.Slot);
      W.endObject();
    }
    W.endArray();
  }
  if (R.Passes == "inline" || R.Passes == "all") {
    opt::InlinePlan Plan =
        opt::planInlining(Unit, Cfg.Cfgs, Cfg.CG, Weights);
    W.key("inline").beginArray();
    for (const opt::InlineDecision &D : Plan.Sites) {
      W.beginObject();
      W.member("call_site", D.CallSiteId);
      W.member("caller", D.Caller->name());
      W.member("callee", D.Callee->name());
      W.member("weight", D.Weight);
      W.endObject();
    }
    W.endArray();
  }
  W.endObject();
  return W.take();
}

std::string reportResultJson(CacheSet &Caches, const Request &R,
                             const CfgArtifact &Cfg,
                             const ProgramEstimate &E) {
  const TranslationUnit &Unit = Cfg.Ast->Ctx.unit();
  ProgramInput Input;
  Input.Text = R.Input;
  Input.RandSeed = R.Seed;
  RunResult Run;
  if (R.Engine == "native") {
    // The native tier runs the same RunResult contract bit-identically,
    // so an engine:"native" report differs from an ast one only in its
    // echoed engine field — unless the host cannot compile, in which
    // case the capability diagnostic becomes the run error.
    std::shared_ptr<const NativeEntry> N = getOrBuildNative(Caches, R, Cfg);
    if (N->Artifact) {
      obs::ScopedPhase Phase("service.build.run");
      Run = N->Artifact->run(Unit, Cfg.Cfgs, Input, {});
    } else {
      Run.Error = N->Error;
    }
  } else {
    obs::ScopedPhase Phase("service.build.run");
    InterpOptions O;
    O.Engine = R.Engine == "bytecode" ? InterpEngine::Bytecode
                                      : InterpEngine::Ast;
    Run = runProgram(Unit, Cfg.Cfgs, Input, O);
  }
  JsonWriter W;
  W.beginObject();
  W.member("engine", R.Engine);
  W.key("run").beginObject();
  W.member("ok", Run.Ok);
  if (!Run.Ok)
    W.member("error", Run.Error);
  W.member("exit_code", Run.ExitCode);
  W.member("steps", Run.StepsExecuted);
  W.member("output", Run.Output);
  W.endObject();
  if (Run.Ok) {
    std::vector<size_t> Ids = scoredFunctionIds(Unit);
    W.key("scores").beginArray();
    for (double Cutoff : {0.10, 0.25, 0.50}) {
      W.beginObject();
      W.member("cutoff", Cutoff);
      W.member("intra",
               intraProceduralScore(E, Run.TheProfile, Ids, Cutoff));
      W.member("functions",
               functionInvocationScore(E, Run.TheProfile, Ids, Cutoff));
      W.member("call_sites", callSiteScore(E, Run.TheProfile, Cutoff));
      W.endObject();
    }
    W.endArray();
  }
  W.endObject();
  return W.take();
}

/// The response key's fields beside its source: the op and the request
/// fields that op reads, so a field the op ignores cannot fragment the
/// response tier. Deliberately NOT the raw line — field order and the
/// echoed id must not fragment it either.
std::string responseFields(const Request &R) {
  HashBuilder H("response");
  H.add(R.Op);
  if (R.Op == "estimate")
    R.Opts.addFields(H).addBool(R.Blocks);
  else if (R.Op == "optimize")
    R.Opts.addFields(H).add(R.Passes);
  else if (R.Op == "report")
    R.Opts.addFields(H).add(R.Input).addU64(R.Seed).add(R.Engine);
  else if (R.Op == "tune")
    H.add(R.Input)
        .addU64(R.Seed)
        .addU64(R.Budget)
        .add(R.Oracles)
        .add(R.Engine);
  return H.take();
}

/// The `tune` result: the full sest-tune-report/1 document for the
/// request's source, as produced by the autotuner over a synthesized
/// train/eval input pair (tune::tuneSource). Deterministic — same
/// source + knobs -> same bytes — so the response tier holds it.
std::string tuneResultJson(const Request &R) {
  tune::TuneOptions O;
  O.Budget = R.Budget;
  O.Seed = R.Seed;
  O.Engine = R.Engine == "bytecode" ? InterpEngine::Bytecode
                                    : InterpEngine::Ast;
  O.Oracles.clear();
  std::string Rest = R.Oracles;
  while (!Rest.empty()) {
    size_t Comma = Rest.find(',');
    tune::TuneOracle Oracle;
    if (tune::parseTuneOracle(Rest.substr(0, Comma), Oracle))
      O.Oracles.push_back(Oracle);
    Rest = Comma == std::string::npos ? "" : Rest.substr(Comma + 1);
  }
  return tune::tuneSource(R.Src->Bytes, R.Input, O);
}

/// Computes the response body for one cacheable op (parse / estimate /
/// optimize / report / tune), walking the artifact tiers top-down so every
/// stage that is already cached is skipped.
ResponseBody buildBody(CacheSet &Caches, const Request &R) {
  ResponseBody Body;
  std::shared_ptr<const AstArtifact> Ast = getOrBuildAst(Caches, R);
  if (!Ast->Ok) {
    Body.Error = "program does not parse: " + Ast->DiagText;
    return Body;
  }
  std::shared_ptr<const CfgArtifact> Cfg = getOrBuildCfg(Caches, R, Ast);
  if (R.Op == "parse") {
    Body.Ok = true;
    Body.ResultJson = parseResultJson(*Cfg);
    return Body;
  }
  if (R.Op == "tune") {
    obs::ScopedPhase Phase("service.build.tune");
    Body.Ok = true;
    Body.ResultJson = tuneResultJson(R);
    return Body;
  }
  std::shared_ptr<const BranchArtifact> Branch =
      getOrBuildBranch(Caches, R, *Cfg);
  std::shared_ptr<const ProgramEstimate> Solve =
      getOrBuildSolve(Caches, R, *Cfg, *Branch);
  if (R.Op == "estimate") {
    Body.Ok = true;
    Body.ResultJson = estimateResultJson(R, *Cfg, *Solve);
  } else if (R.Op == "optimize") {
    obs::ScopedPhase Phase("service.build.plan");
    Body.Ok = true;
    Body.ResultJson = optimizeResultJson(R, *Cfg, *Solve);
  } else { // report
    Body.Ok = true;
    Body.ResultJson = reportResultJson(Caches, R, *Cfg, *Solve);
  }
  return Body;
}

std::string statsResultJson(const ServiceOptions &Opts,
                            const CacheSet &Caches) {
  JsonWriter W;
  W.beginObject();
  W.member("schema", "sest-service-stats/1");
  W.member("jobs", Opts.Jobs);
  W.member("cache_budget_bytes",
           static_cast<uint64_t>(Opts.CacheBudgetBytes));
  W.member("cache_shards", Opts.CacheShards);
  // Host capability for engine:"native" reports: whether the backend
  // can compile on this machine, and with what.
  std::string Why;
  bool NativeAvailable = backend::nativeEngineAvailable(&Why);
  W.key("native_engine").beginObject();
  W.member("available", NativeAvailable);
  if (NativeAvailable)
    W.member("compiler", backend::hostCompilerPath());
  else
    W.member("reason", Why);
  W.endObject();
  W.key("cache").beginObject();
  for (const ShardedCache *C : Caches.all()) {
    CacheTierStats S = C->stats();
    W.key(C->tier()).beginObject();
    W.member("hit", S.Hits);
    W.member("miss", S.Misses);
    W.member("evict", S.Evictions);
    W.member("bytes", S.Bytes);
    W.member("entries", S.Entries);
    W.endObject();
  }
  W.endObject();
  // The same totals flattened under the exporter's registry names, so
  // sesttop, the `metrics` exposition, and `stats` share one source of
  // truth (the tier atomics) and one naming scheme.
  W.key("gauges").beginObject();
  for (const ShardedCache *C : Caches.all()) {
    CacheTierStats S = C->stats();
    std::string Base = "service.cache." + C->tier() + ".";
    W.member(Base + "hits", S.Hits);
    W.member(Base + "misses", S.Misses);
    W.member(Base + "evictions", S.Evictions);
    W.member(Base + "bytes", S.Bytes);
    W.member(Base + "entries", S.Entries);
  }
  W.endObject();
  // The live telemetry report (phases, counters, gauges, histograms —
  // the same shape the suite report embeds), when the caller's thread
  // has a collector installed.
  if (obs::Telemetry *T = obs::Telemetry::active()) {
    W.key("telemetry");
    T->writeReport(W);
  } else {
    W.key("telemetry").nullValue(); // no collector installed
  }
  W.endObject();
  return W.take();
}

/// The cache tiers' live atomic totals as exporter extra series — the
/// `service.cache.<tier>.*` gauge families (plural names, matching the
/// flat `gauges` object in the stats result).
std::vector<obs::ExtraSeries> cacheSeries(const CacheSet &Caches) {
  std::vector<obs::ExtraSeries> Extra;
  for (const ShardedCache *C : Caches.all()) {
    CacheTierStats S = C->stats();
    std::string Base = "service.cache." + C->tier() + ".";
    Extra.push_back({Base + "hits", static_cast<double>(S.Hits), false});
    Extra.push_back(
        {Base + "misses", static_cast<double>(S.Misses), false});
    Extra.push_back(
        {Base + "evictions", static_cast<double>(S.Evictions), false});
    Extra.push_back({Base + "bytes", static_cast<double>(S.Bytes), false});
    Extra.push_back(
        {Base + "entries", static_cast<double>(S.Entries), false});
  }
  return Extra;
}

/// The `metrics` result: the exposition as one JSON string field, so
/// the envelope stays line-delimited JSON while the payload is standard
/// Prometheus text.
std::string metricsResultJson(const std::string &Scope,
                              const std::string &Exposition) {
  JsonWriter W;
  W.beginObject();
  W.member("schema", "sest-service-metrics/1");
  W.member("format", "prometheus");
  W.member("scope", Scope);
  W.member("exposition", Exposition);
  W.endObject();
  return W.take();
}

/// The `health` result: liveness plus a config echo. Live (the answer
/// depends on service configuration), like `stats`.
std::string healthResultJson(const ServiceOptions &Opts, bool Shutdown) {
  JsonWriter W;
  W.beginObject();
  W.member("schema", "sest-service-health/1");
  W.member("status", "ok");
  W.member("protocol", "sest-service/1");
  W.member("accepting", !Shutdown);
  W.member("jobs", Opts.Jobs);
  W.member("cache_enabled", Opts.CacheBudgetBytes > 0);
  W.member("native_engine", backend::nativeEngineAvailable(nullptr));
  W.endObject();
  return W.take();
}

} // namespace

//===----------------------------------------------------------------------===//
// Service
//===----------------------------------------------------------------------===//

Service::Service(const ServiceOptions &Options)
    : Opts(Options),
      Caches(std::make_unique<CacheSet>(Options.CacheBudgetBytes,
                                        Options.CacheShards)) {}

Service::~Service() = default;

std::string Service::metricsExposition(bool DeterministicOnly) const {
  obs::ExportOptions O;
  O.DeterministicOnly = DeterministicOnly;
  std::vector<obs::ExtraSeries> Extra;
  if (!DeterministicOnly)
    Extra = cacheSeries(*Caches);
  if (const obs::Telemetry *T = obs::Telemetry::active())
    return obs::renderPrometheus(*T, O, Extra);
  obs::Telemetry Empty; // no collector installed: cache series only
  return obs::renderPrometheus(Empty, O, Extra);
}

std::string Service::dispatch(const detail::Request &R, bool &Ok) {
  obs::ScopedPhase Phase("service.request", R.Op);
  // service.requests counts every request line received (bad included:
  // service.requests.bad is a subset, not a sibling).
  obs::counterAdd("service.requests");
  if (!R.Error.empty()) {
    obs::counterAdd("service.requests.bad");
    Ok = false;
    return renderError(R, R.Error);
  }
  obs::counterAdd(R.Info->RequestsCounter);

  // Control ops: answered live, never cached. The counters above run
  // first, so a metrics answer includes its own request.
  if (R.Op == "stats") {
    ResponseBody Body;
    Body.Ok = Ok = true;
    Body.ResultJson = statsResultJson(Opts, *Caches);
    return renderEnvelope(R, Body);
  }
  if (R.Op == "metrics") {
    ResponseBody Body;
    Body.Ok = Ok = true;
    Body.ResultJson = metricsResultJson(
        R.Scope, metricsExposition(R.Scope == "deterministic"));
    return renderEnvelope(R, Body);
  }
  if (R.Op == "health") {
    ResponseBody Body;
    Body.Ok = Ok = true;
    Body.ResultJson = healthResultJson(Opts, shutdownRequested());
    return renderEnvelope(R, Body);
  }
  if (R.Op == "shutdown") {
    Shutdown.store(true, std::memory_order_relaxed);
    ResponseBody Body;
    Body.Ok = Ok = true;
    Body.ResultJson = "{\"shutting_down\":true}";
    return renderEnvelope(R, Body);
  }

  // The response tier short-circuits every analysis stage. A racing
  // duplicate compute is benign (deterministic bodies; first put wins).
  std::string Fields = responseFields(R);
  std::shared_ptr<const ResponseBody> Body =
      Caches->Response.getAs<ResponseBody>({R.Src, Fields});
  if (Body) {
    logCacheEvent(R, "response", true);
  } else {
    auto Built = std::make_shared<ResponseBody>(buildBody(*Caches, R));
    logCacheEvent(R, "response", false,
                  Built->Error.size() + Built->ResultJson.size());
    putCharged(*Caches, Caches->Response, R, std::move(Fields), Built,
               sizeof(ResponseBody) + Built->Error.size() +
                   Built->ResultJson.size());
    Body = std::move(Built);
  }
  Ok = Body->Ok;
  return renderEnvelope(R, *Body);
}

std::string Service::handleParsed(const detail::Request &R) {
  // The request span: dequeue -> execute (-> per-tier cache events
  // inside dispatch) -> respond, all under the intake-assigned req:<N>
  // provenance, so a request's latency joins its cache outcomes.
  const char *OpName = R.Error.empty() ? R.Op.c_str() : "invalid";
  if (obs::eventLogActive()) {
    obs::logEvent("service.request.dequeue", obs::provRequest(R.Ordinal),
                  {obs::attr("op", OpName)});
    obs::logEvent("service.request.execute", obs::provRequest(R.Ordinal),
                  {obs::attr("op", OpName)});
  }
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start = Clock::now();
  bool Ok = false;
  std::string Out = dispatch(R, Ok);
  double Us = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            Start)
          .count());
  obs::histRecord("service.request_us", Us);
  if (R.Error.empty())
    obs::histRecord(R.Info->LatencyHistogram, Us);
  if (obs::eventLogActive())
    obs::logEvent("service.request.respond", obs::provRequest(R.Ordinal),
                  {obs::attr("ok", Ok ? 1.0 : 0.0),
                   obs::attr("bytes", static_cast<double>(Out.size()))});
  return Out;
}

void Service::enqueue(detail::Request &R, uint64_t Ordinal,
                      size_t QueueDepth) {
  R.Ordinal = Ordinal;
  if (obs::eventLogActive())
    obs::logEvent("service.request.enqueue", obs::provRequest(R.Ordinal),
                  {obs::attr("op", R.Error.empty() ? R.Op.c_str()
                                                   : "invalid"),
                   obs::attr("queue_depth",
                             static_cast<double>(QueueDepth))});
}

std::string Service::handle(const std::string &Line) {
  detail::Request R = parseRequest(Line, Caches->Sources);
  enqueue(R, NextOrdinal.fetch_add(1, std::memory_order_relaxed), 1);
  return handleParsed(R);
}

std::string Service::reject(const std::string &Error) {
  detail::Request R;
  R.Error = Error;
  enqueue(R, NextOrdinal.fetch_add(1, std::memory_order_relaxed), 1);
  return handleParsed(R);
}

std::vector<std::string>
Service::handleBatch(const std::vector<std::string> &Lines) {
  std::vector<std::string> Out(Lines.size());
  obs::ScopedPhase Phase("service.batch");
  obs::gaugeMax("service.batch.depth",
                static_cast<double>(Lines.size()));
  obs::counterAdd("service.batches");

  // Intake: decode on the workers, then assign ordinals in request order
  // and emit every enqueue event before any execution — the serial and
  // parallel paths then produce identical event streams.
  std::vector<detail::Request> Reqs(Lines.size());
  obs::parallelFor(Opts.Jobs, Lines.size(), [&](size_t I) {
    Reqs[I] = parseRequest(Lines[I], Caches->Sources);
  });
  const uint64_t Base =
      NextOrdinal.fetch_add(Lines.size(), std::memory_order_relaxed);
  for (size_t I = 0; I < Lines.size(); ++I)
    enqueue(Reqs[I], Base + I, Lines.size());

  // Control ops (stats/metrics/health/shutdown) split the batch: each
  // runs alone on this thread once everything before it has merged, so
  // its answer sees exactly the requests that preceded it in the stream,
  // at every Jobs value.
  for (size_t Start = 0, End; Start < Lines.size(); Start = End) {
    End = Start + 1;
    if (!isControlOp(Reqs[Start]))
      while (End < Lines.size() && !isControlOp(Reqs[End]))
        ++End;
    obs::parallelFor(Opts.Jobs, End - Start, [&](size_t I) {
      Out[Start + I] = handleParsed(Reqs[Start + I]);
    });
  }
  return Out;
}
