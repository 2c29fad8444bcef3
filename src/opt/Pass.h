//===- opt/Pass.h - Composable optimizer passes -----------------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The composable pass pipeline over the optimizer: every transformation
/// (block layout, call-site inlining, function ordering) is a Pass that
/// reads and advances one PassContext, and a Pipeline (the pass
/// scheduler) runs an ordered, parameterized pass list described by an
/// explicit TuneConfig. The legacy `--optimize layout|inline|all` modes
/// are canned TuneConfigs; the autotuner (src/tune/) searches the
/// TuneConfig space with the same pipeline.
///
/// Pipeline invariants:
///  - The CallGraph is built once, on the pristine CFGs, and never
///    rebuilt (the inliner's contract: cloned call sites reuse their
///    original ids).
///  - Any pass order is valid. When inlining mutates the CFGs after a
///    layout was already computed, the layout is extended in place
///    (cloned blocks appended id-ascending per function), and the
///    WeightSource is extended so later passes see weights for cloned
///    blocks (extendWeightsAfterInline).
///  - Everything is deterministic: same config + same weights -> same
///    result, bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef OPT_PASS_H
#define OPT_PASS_H

#include "callgraph/CallGraph.h"
#include "cfg/Cfg.h"
#include "lang/Ast.h"
#include "opt/FuncOrder.h"
#include "opt/Inline.h"
#include "opt/Layout.h"
#include "opt/WeightSource.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sest {
namespace opt {

/// The passes the pipeline can schedule.
enum class PassKind {
  Layout,    ///< Basic-block chaining + cold outlining (Layout.h).
  Inline,    ///< Top-K call-site inlining (Inline.h).
  FuncOrder, ///< Function ordering by call arcs (FuncOrder.h).
};

/// Stable pass name ("layout", "inline", "funcorder").
const char *passKindName(PassKind K);

/// Parses a pass name; returns false on an unknown name.
bool parsePassKind(std::string_view Name, PassKind &K);

/// The explicit, serializable optimizer configuration: which passes run,
/// in which order, with which knobs. This is the point in the search
/// space the autotuner moves through.
struct TuneConfig {
  /// Pass execution order. Each pass appears at most once; an absent
  /// pass does not run. The default is the tuner's composition order
  /// (inline first so layout sees the final CFG).
  std::vector<PassKind> Order = {PassKind::Inline, PassKind::Layout};
  /// Layout knobs (cold-chain outlining boundary).
  LayoutOptions Layout;
  /// Inlining budgets. TopK == 0 disables the inline pass even when it
  /// is listed in Order (the canonical "inlining off" point).
  InlineOptions Inline;
  /// Function-ordering knobs.
  FuncOrderOptions FuncOrder;

  bool hasPass(PassKind K) const;

  /// Content hash over every field that influences the pipeline result
  /// (domain "tune-config"). TopK == 0 canonicalizes the inline pass
  /// away first, so "inline disabled" hashes identically regardless of
  /// where the dead pass sat in Order.
  uint64_t contentHash() const;

  /// The order as "inline,layout" (canonicalized like contentHash).
  std::string orderString() const;

  /// Parses a comma-separated pass list ("layout,inline,funcorder").
  /// Rejects unknown and duplicate passes.
  static bool parseOrderString(std::string_view List,
                               std::vector<PassKind> &Out,
                               std::string *Err = nullptr);

  /// Serializes as a sest-tune-config/1 JSON document.
  std::string toJson() const;

  /// Parses a sest-tune-config/1 document (as written by toJson /
  /// sestune). Unknown keys are rejected; absent knobs keep defaults.
  static bool fromJson(std::string_view Json, TuneConfig &Out,
                       std::string *Err = nullptr);

  /// The canned configs behind the legacy CLI modes: "layout" (layout
  /// pass only), "inline" (inline pass only), "all" (layout then inline
  /// — the historical presentation order, so results are bit-identical
  /// to the pre-pipeline plumbing), "funcorder" (function ordering
  /// only). Returns false for an unknown name.
  static bool canned(std::string_view Name, TuneConfig &Out);
};

/// The state one pipeline run threads through its passes.
struct PassContext {
  AstContext &Ctx;              ///< Owns the AST; the inliner clones from it.
  const TranslationUnit &Unit;
  CfgModule &Cfgs;              ///< Mutated in place by the inline pass.
  const CallGraph &CG;          ///< Built pre-pipeline; never rebuilt.
  const TuneConfig &Config;
  WeightSource W;               ///< Extended in place after inlining.

  ProgramLayout Layout;         ///< Valid when HasLayout.
  bool HasLayout = false;
  FunctionOrder FuncOrder;      ///< Valid when HasFuncOrder.
  bool HasFuncOrder = false;
  InlineMap Inlined;            ///< Valid when HasInline (sites applied).
  bool HasInline = false;
  /// The plan the inline pass computed (set even when nothing applied) —
  /// lets observers show the selection exactly as it was made.
  InlinePlan LastInlinePlan;
};

/// One composable transformation. Implementations are stateless
/// singletons; all state lives in the PassContext.
class Pass {
public:
  virtual ~Pass() = default;
  virtual PassKind kind() const = 0;
  const char *name() const { return passKindName(kind()); }
  virtual void run(PassContext &PC) const = 0;
};

/// The stateless singleton implementing \p K.
const Pass &passFor(PassKind K);

/// What a pipeline run produced (the movable outputs of the final
/// PassContext).
struct PipelineResult {
  ProgramLayout Layout;
  bool HasLayout = false;
  FunctionOrder FuncOrder;
  bool HasFuncOrder = false;
  InlineMap Inlined;
  bool HasInline = false;
  /// Final weights: the input WeightSource, extended past inlining.
  WeightSource W;
  /// Pass names in execution order (canonicalized).
  std::vector<std::string> Trace;
};

/// The pass scheduler: resolves a TuneConfig to its ordered pass list
/// and runs it. Construction canonicalizes the config (TopK == 0 drops
/// the inline pass).
class Pipeline {
public:
  explicit Pipeline(const TuneConfig &Config);

  /// The passes that will run, in order.
  const std::vector<const Pass *> &passes() const { return Passes; }
  const TuneConfig &config() const { return Config; }

  /// Observer called after each pass completes, with the live context —
  /// how the CLI prints per-stage decisions at the moment they are made.
  using PassObserver = void (*)(const Pass &, const PassContext &, void *);

  /// Runs every pass over a fresh context seeded with \p W. \p Cfgs is
  /// mutated in place when the inline pass applies sites.
  PipelineResult run(AstContext &Ctx, CfgModule &Cfgs, const CallGraph &CG,
                     WeightSource W, PassObserver Observer = nullptr,
                     void *ObserverState = nullptr) const;

private:
  TuneConfig Config;
  std::vector<const Pass *> Passes;
};

/// Extends \p W in place after \p M was applied: cloned blocks (and
/// their arc slots) inherit their origin's weights scaled by the inlined
/// region's site weight over the callee's invocation weight, applied
/// sites' call-site weights drop to zero (their call overhead is gone),
/// and inlined callees' invocation weights shrink by the absorbed site
/// weight. Deterministic; weights stay non-negative.
void extendWeightsAfterInline(WeightSource &W, const TranslationUnit &Unit,
                              const CfgModule &Cfgs, const InlineMap &M);

/// The analytic dynamic-cost prediction for a pipeline outcome under
/// weights \p W: every arc slot weight classified against \p Layout
/// (null = identity) as fall-through or taken, plus call/return linkage
/// overhead for every call site with positive weight whose callee is not
/// a builtin. Uses the LayoutCostCounters weights, so for measured
/// (profile) weights it equals the interpreter's reclassified cost
/// exactly; for static weights it is the estimate-driven prediction the
/// tuner's static oracle minimizes.
double predictedLayoutCost(const TranslationUnit &Unit, const CfgModule &Cfgs,
                           const CallGraph &CG, const WeightSource &W,
                           const ProgramLayout *Layout);

} // namespace opt
} // namespace sest

#endif // OPT_PASS_H
