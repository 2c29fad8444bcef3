//===- opt/Pass.cpp - Composable optimizer passes -------------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "obs/Telemetry.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <algorithm>
#include <cmath>

using namespace sest;
using namespace sest::opt;

const char *opt::passKindName(PassKind K) {
  switch (K) {
  case PassKind::Layout:
    return "layout";
  case PassKind::Inline:
    return "inline";
  case PassKind::FuncOrder:
    return "funcorder";
  }
  return "?";
}

bool opt::parsePassKind(std::string_view Name, PassKind &K) {
  if (Name == "layout") {
    K = PassKind::Layout;
    return true;
  }
  if (Name == "inline") {
    K = PassKind::Inline;
    return true;
  }
  if (Name == "funcorder") {
    K = PassKind::FuncOrder;
    return true;
  }
  return false;
}

namespace {

/// The config's order with dead passes removed: TopK == 0 means the
/// inline pass selects nothing, so "inlining off" is one canonical
/// point no matter where the pass sat in the list.
std::vector<PassKind> canonicalOrder(const TuneConfig &C) {
  std::vector<PassKind> Out;
  for (PassKind K : C.Order) {
    if (K == PassKind::Inline && C.Inline.TopK == 0)
      continue;
    if (std::find(Out.begin(), Out.end(), K) == Out.end())
      Out.push_back(K);
  }
  return Out;
}

} // namespace

bool TuneConfig::hasPass(PassKind K) const {
  std::vector<PassKind> Canon = canonicalOrder(*this);
  return std::find(Canon.begin(), Canon.end(), K) != Canon.end();
}

std::string TuneConfig::orderString() const {
  std::string Out;
  for (PassKind K : canonicalOrder(*this)) {
    if (!Out.empty())
      Out += ',';
    Out += passKindName(K);
  }
  return Out;
}

uint64_t TuneConfig::contentHash() const {
  HashBuilder H("tune-config");
  H.add(orderString());
  H.addDouble(Layout.ColdFraction);
  if (hasPass(PassKind::Inline)) {
    H.addU64(Inline.TopK);
    H.addU64(Inline.MaxCalleeBlocks);
    H.addU64(Inline.MaxTotalGrowthBlocks);
  }
  H.addDouble(FuncOrder.DistanceCost);
  return H.digest();
}

bool TuneConfig::parseOrderString(std::string_view List,
                                  std::vector<PassKind> &Out,
                                  std::string *Err) {
  Out.clear();
  size_t Pos = 0;
  while (Pos <= List.size()) {
    size_t Comma = List.find(',', Pos);
    std::string_view Name = List.substr(
        Pos, Comma == std::string_view::npos ? List.size() - Pos
                                             : Comma - Pos);
    PassKind K;
    if (!parsePassKind(Name, K)) {
      if (Err)
        *Err = "unknown pass '" + std::string(Name) + "'";
      return false;
    }
    if (std::find(Out.begin(), Out.end(), K) != Out.end()) {
      if (Err)
        *Err = "duplicate pass '" + std::string(Name) + "'";
      return false;
    }
    Out.push_back(K);
    if (Comma == std::string_view::npos)
      break;
    Pos = Comma + 1;
  }
  if (Out.empty()) {
    if (Err)
      *Err = "empty pass list";
    return false;
  }
  return true;
}

std::string TuneConfig::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.member("schema", "sest-tune-config/1");
  W.key("passes").beginArray();
  for (PassKind K : canonicalOrder(*this))
    W.value(passKindName(K));
  W.endArray();
  W.key("layout").beginObject();
  W.member("cold_fraction", Layout.ColdFraction);
  W.endObject();
  W.key("inline").beginObject();
  W.member("top_k", static_cast<uint64_t>(Inline.TopK));
  W.member("max_callee_blocks", static_cast<uint64_t>(Inline.MaxCalleeBlocks));
  W.member("max_total_growth_blocks",
           static_cast<uint64_t>(Inline.MaxTotalGrowthBlocks));
  W.endObject();
  W.key("funcorder").beginObject();
  W.member("distance_cost", FuncOrder.DistanceCost);
  W.endObject();
  W.endObject();
  return W.take();
}

bool TuneConfig::fromJson(std::string_view Json, TuneConfig &Out,
                          std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  std::optional<JsonValue> Doc = parseJson(Json);
  if (!Doc || !Doc->isObject())
    return Fail("not a JSON object");
  TuneConfig C;
  C.Order.clear();
  bool SawPasses = false;
  for (const auto &[Key, V] : Doc->Members) {
    if (Key == "schema") {
      if (!V.isString() || V.StringVal != "sest-tune-config/1")
        return Fail("unsupported schema (want sest-tune-config/1)");
    } else if (Key == "passes") {
      if (!V.isArray())
        return Fail("'passes' must be an array of pass names");
      SawPasses = true;
      for (const JsonValue &P : V.Items) {
        PassKind K;
        if (!P.isString() || !parsePassKind(P.StringVal, K))
          return Fail("unknown pass in 'passes'");
        if (std::find(C.Order.begin(), C.Order.end(), K) != C.Order.end())
          return Fail("duplicate pass '" + P.StringVal + "'");
        C.Order.push_back(K);
      }
    } else if (Key == "layout") {
      if (!V.isObject())
        return Fail("'layout' must be an object");
      for (const auto &[LK, LV] : V.Members) {
        if (LK == "cold_fraction" && LV.isNumber() && LV.NumberVal >= 0.0)
          C.Layout.ColdFraction = LV.NumberVal;
        else
          return Fail("bad layout knob '" + LK + "'");
      }
    } else if (Key == "inline") {
      if (!V.isObject())
        return Fail("'inline' must be an object");
      for (const auto &[IK, IV] : V.Members)
        if (IK != "top_k" && IK != "max_callee_blocks" &&
            IK != "max_total_growth_blocks")
          return Fail("bad inline knob '" + IK + "'");
      uint64_t TopK = C.Inline.TopK, Callee = C.Inline.MaxCalleeBlocks,
               Growth = C.Inline.MaxTotalGrowthBlocks;
      std::string E;
      if (!readIntegerField(V, "top_k", 0.0, 0x1p32, "[0, 2^32)", TopK, E) ||
          !readIntegerField(V, "max_callee_blocks", 0.0, 0x1p64,
                            "[0, 2^64)", Callee, E) ||
          !readIntegerField(V, "max_total_growth_blocks", 0.0, 0x1p64,
                            "[0, 2^64)", Growth, E))
        return Fail(E);
      C.Inline.TopK = static_cast<unsigned>(TopK);
      C.Inline.MaxCalleeBlocks = Callee;
      C.Inline.MaxTotalGrowthBlocks = Growth;
    } else if (Key == "funcorder") {
      if (!V.isObject())
        return Fail("'funcorder' must be an object");
      for (const auto &[FK, FV] : V.Members) {
        if (FK == "distance_cost" && FV.isNumber() && FV.NumberVal >= 0.0)
          C.FuncOrder.DistanceCost = FV.NumberVal;
        else
          return Fail("bad funcorder knob '" + FK + "'");
      }
    } else {
      return Fail("unknown key '" + Key + "'");
    }
  }
  if (!SawPasses || C.Order.empty())
    return Fail("'passes' must name at least one pass");
  Out = std::move(C);
  return true;
}

bool TuneConfig::canned(std::string_view Name, TuneConfig &Out) {
  TuneConfig C;
  if (Name == "layout")
    C.Order = {PassKind::Layout};
  else if (Name == "inline")
    C.Order = {PassKind::Inline};
  else if (Name == "all")
    // The historical presentation order: layout decisions are made on
    // the pristine CFG, then inlining — bit-identical to the
    // pre-pipeline `--optimize all` plumbing.
    C.Order = {PassKind::Layout, PassKind::Inline};
  else if (Name == "funcorder")
    C.Order = {PassKind::FuncOrder};
  else
    return false;
  Out = std::move(C);
  return true;
}

//===----------------------------------------------------------------------===//
// Weight + layout extension across inlining
//===----------------------------------------------------------------------===//

void opt::extendWeightsAfterInline(WeightSource &W,
                                   const TranslationUnit &Unit,
                                   const CfgModule &Cfgs,
                                   const InlineMap &M) {
  if (M.Applied.empty())
    return;
  const WeightSource Old = W;
  const size_t NumF = Unit.Functions.size();
  if (W.BlockWeights.size() < NumF)
    W.BlockWeights.resize(NumF);
  if (W.ArcWeights.size() < NumF)
    W.ArcWeights.resize(NumF);

  // Regions per caller, in creation order (EntryBlock ascending). A
  // region's blocks occupy the id range ending at its trampoline
  // (EntryBlock), so a cloned block belongs to the first region whose
  // EntryBlock is >= its id.
  std::vector<std::vector<const InlineMap::RegionEntry *>> ByCaller(NumF);
  for (const InlineMap::RegionEntry &R : M.Regions)
    if (R.CallerFid < NumF)
      ByCaller[R.CallerFid].push_back(&R);
  for (auto &V : ByCaller)
    std::sort(V.begin(), V.end(),
              [](const InlineMap::RegionEntry *A,
                 const InlineMap::RegionEntry *B) {
                return A->EntryBlock < B->EntryBlock;
              });

  auto SiteWeight = [&Old](const InlineMap::RegionEntry &R) {
    double Wt = Old.callSiteWeight(R.CallSiteId);
    return Wt > 0.0 ? Wt : 0.0;
  };
  auto RegionScale = [&Old, &SiteWeight](const InlineMap::RegionEntry &R) {
    double CalleeW = Old.functionWeight(R.CalleeFid);
    return CalleeW > 0.0 ? SiteWeight(R) / CalleeW : 1.0;
  };

  for (size_t Fid = 0; Fid < NumF && Fid < M.CountOrigin.size(); ++Fid) {
    const uint32_t OrigN =
        Fid < M.OrigNumBlocks.size() ? M.OrigNumBlocks[Fid] : 0;
    const std::vector<InlineMap::Origin> &CO = M.CountOrigin[Fid];
    if (CO.size() <= OrigN)
      continue; // Function untouched by inlining.
    const std::vector<InlineMap::Origin> &AO = M.ArcOrigin[Fid];
    const FunctionDecl *F = Unit.Functions[Fid];
    const Cfg *G = Cfgs.cfg(F);
    if (!G || G->size() != CO.size())
      continue;

    auto RegionFor =
        [&ByCaller, Fid](uint32_t B) -> const InlineMap::RegionEntry * {
      for (const InlineMap::RegionEntry *R : ByCaller[Fid])
        if (R->EntryBlock >= B)
          return R;
      return nullptr;
    };
    // Scale for weights whose origin lives in another function (a cloned
    // callee block): the fraction of the callee's executions this region
    // absorbs. Caller-origin weights transfer unscaled.
    auto ScaleFor = [&](uint32_t B, const InlineMap::Origin &O) {
      if (O.valid() && O.Fid == Fid)
        return 1.0;
      const InlineMap::RegionEntry *R = RegionFor(B);
      return R ? RegionScale(*R) : 1.0;
    };

    std::vector<double> NewBW(G->size(), 0.0);
    std::vector<std::vector<double>> NewAW(G->size());
    for (uint32_t B = 0; B < G->size(); ++B) {
      const InlineMap::Origin &BlockO = B < CO.size() ? CO[B]
                                                      : InlineMap::Origin{};
      const InlineMap::Origin &ArcO = B < AO.size() ? AO[B]
                                                    : InlineMap::Origin{};
      if (BlockO.valid()) {
        NewBW[B] =
            Old.blockWeight(BlockO.Fid, BlockO.Block) * ScaleFor(B, BlockO);
      } else if (ArcO.valid()) {
        // A continuation block: executes with its split origin.
        NewBW[B] =
            Old.blockWeight(ArcO.Fid, ArcO.Block) * ScaleFor(B, ArcO);
      } else if (const InlineMap::RegionEntry *R = RegionFor(B)) {
        // The region trampoline: once per inlined call.
        NewBW[B] = SiteWeight(*R);
      }
      const BasicBlock *BB = G->block(B);
      const size_t NS = BB->successors().size();
      NewAW[B].assign(NS, 0.0);
      if (ArcO.valid()) {
        double S = ScaleFor(B, ArcO);
        for (size_t Slot = 0; Slot < NS; ++Slot)
          NewAW[B][Slot] =
              Old.arcWeight(ArcO.Fid, ArcO.Block,
                            static_cast<uint32_t>(Slot)) *
              S;
      } else if (NS == 1) {
        // Unmapped single-successor blocks (rewired call blocks, return
        // glue, trampolines): every execution takes the one arc.
        NewAW[B][0] = NewBW[B];
      }
    }
    W.BlockWeights[Fid] = std::move(NewBW);
    W.ArcWeights[Fid] = std::move(NewAW);
  }

  // Applied sites stop paying call overhead; their callees lose the
  // absorbed invocations.
  for (const InlineDecision &D : M.Applied) {
    if (D.CallSiteId < W.CallSiteWeights.size() &&
        W.CallSiteWeights[D.CallSiteId] > 0.0) {
      double Absorbed = W.CallSiteWeights[D.CallSiteId];
      W.CallSiteWeights[D.CallSiteId] = 0.0;
      if (D.Callee) {
        uint32_t CalleeFid = D.Callee->functionId();
        if (CalleeFid < W.FunctionWeights.size())
          W.FunctionWeights[CalleeFid] =
              std::max(0.0, W.FunctionWeights[CalleeFid] - Absorbed);
      }
    }
  }
}

namespace {

/// Extends an already-computed layout over blocks the inliner appended:
/// new blocks slot in id-ascending right before the cold tail, so the
/// cold outlining boundary keeps meaning and the order stays a valid
/// permutation.
void extendLayoutAfterInline(ProgramLayout &L, const TranslationUnit &Unit,
                             const CfgModule &Cfgs) {
  if (L.Functions.size() < Unit.Functions.size())
    L.Functions.resize(Unit.Functions.size());
  for (const auto &[F, G] : Cfgs.all()) {
    FunctionLayout &FL = L.Functions[F->functionId()];
    const uint32_t N = static_cast<uint32_t>(G->size());
    const uint32_t OldN = static_cast<uint32_t>(FL.Order.size());
    if (OldN == 0 || OldN >= N)
      continue;
    std::vector<uint32_t> NewIds;
    for (uint32_t B = OldN; B < N; ++B)
      NewIds.push_back(B);
    FL.Order.insert(FL.Order.begin() + FL.FirstColdPos, NewIds.begin(),
                    NewIds.end());
    FL.FirstColdPos += static_cast<uint32_t>(NewIds.size());
    FL.Pos.assign(N, 0);
    for (uint32_t P = 0; P < N; ++P)
      FL.Pos[FL.Order[P]] = P;
  }
}

class LayoutPass final : public Pass {
public:
  PassKind kind() const override { return PassKind::Layout; }
  void run(PassContext &PC) const override {
    PC.Layout = computeBlockLayout(PC.Unit, PC.Cfgs, PC.W, PC.Config.Layout);
    PC.HasLayout = true;
  }
};

class InlinePass final : public Pass {
public:
  PassKind kind() const override { return PassKind::Inline; }
  void run(PassContext &PC) const override {
    InlinePlan Plan =
        planInlining(PC.Unit, PC.Cfgs, PC.CG, PC.W, PC.Config.Inline);
    InlineMap M = applyInlining(PC.Ctx, PC.Cfgs, Plan);
    PC.LastInlinePlan = std::move(Plan);
    if (M.Applied.empty())
      return;
    extendWeightsAfterInline(PC.W, PC.Unit, PC.Cfgs, M);
    if (PC.HasLayout)
      extendLayoutAfterInline(PC.Layout, PC.Unit, PC.Cfgs);
    PC.Inlined = std::move(M);
    PC.HasInline = true;
  }
};

class FuncOrderPass final : public Pass {
public:
  PassKind kind() const override { return PassKind::FuncOrder; }
  void run(PassContext &PC) const override {
    PC.FuncOrder = computeFunctionOrder(PC.Unit, PC.CG, PC.W);
    PC.HasFuncOrder = true;
  }
};

} // namespace

const Pass &opt::passFor(PassKind K) {
  static const LayoutPass LayoutP;
  static const InlinePass InlineP;
  static const FuncOrderPass FuncOrderP;
  switch (K) {
  case PassKind::Layout:
    return LayoutP;
  case PassKind::Inline:
    return InlineP;
  case PassKind::FuncOrder:
    return FuncOrderP;
  }
  return LayoutP;
}

Pipeline::Pipeline(const TuneConfig &TheConfig) : Config(TheConfig) {
  for (PassKind K : canonicalOrder(Config))
    Passes.push_back(&passFor(K));
}

PipelineResult Pipeline::run(AstContext &Ctx, CfgModule &Cfgs,
                             const CallGraph &CG, WeightSource W,
                             PassObserver Observer,
                             void *ObserverState) const {
  obs::ScopedPhase Phase("opt.pipeline");
  PassContext PC{Ctx,   Ctx.unit(), Cfgs,  CG, Config, std::move(W),
                 {},    false,      {},    false,
                 {},    false,      {}};
  PipelineResult R;
  for (const Pass *P : Passes) {
    P->run(PC);
    R.Trace.emplace_back(P->name());
    if (Observer)
      Observer(*P, PC, ObserverState);
  }
  obs::counterAdd("opt.pipeline.runs");
  obs::counterAdd("opt.pipeline.passes", static_cast<double>(Passes.size()));
  R.Layout = std::move(PC.Layout);
  R.HasLayout = PC.HasLayout;
  R.FuncOrder = std::move(PC.FuncOrder);
  R.HasFuncOrder = PC.HasFuncOrder;
  R.Inlined = std::move(PC.Inlined);
  R.HasInline = PC.HasInline;
  R.W = std::move(PC.W);
  return R;
}

double opt::predictedLayoutCost(const TranslationUnit &Unit,
                                const CfgModule &Cfgs, const CallGraph &CG,
                                const WeightSource &W,
                                const ProgramLayout *Layout) {
  (void)Unit;
  double Cost = 0.0;
  for (const auto &[F, G] : Cfgs.all()) {
    const uint32_t Fid = F->functionId();
    const FunctionLayout *FL = nullptr;
    if (Layout && Fid < Layout->Functions.size() &&
        Layout->Functions[Fid].Order.size() == G->size() &&
        Layout->Functions[Fid].Pos.size() == G->size())
      FL = &Layout->Functions[Fid];
    for (const auto &BPtr : G->blocks()) {
      const BasicBlock *B = BPtr.get();
      const uint32_t SrcPos = FL ? FL->Pos[B->id()] : B->id();
      const std::vector<BasicBlock *> &Succs = B->successors();
      for (size_t S = 0; S < Succs.size(); ++S) {
        double Wt = W.arcWeight(Fid, B->id(), static_cast<uint32_t>(S));
        if (Wt <= 0.0)
          continue;
        const uint32_t DstPos =
            FL ? FL->Pos[Succs[S]->id()] : Succs[S]->id();
        Cost += DstPos == SrcPos + 1
                    ? Wt * LayoutCostCounters::CostFallThrough
                    : Wt * LayoutCostCounters::CostTaken;
      }
    }
  }
  for (const CallSiteInfo &S : CG.sites()) {
    if (S.Callee && S.Callee->isBuiltin())
      continue;
    double Wt = W.callSiteWeight(S.CallSiteId);
    if (Wt <= 0.0)
      continue;
    Cost += Wt * (LayoutCostCounters::CostCall + LayoutCostCounters::CostReturn);
  }
  return Cost;
}
