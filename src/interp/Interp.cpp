//===- interp/Interp.cpp - Profiling interpreter ---------------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "interp/bytecode/BytecodeCompiler.h"
#include "interp/bytecode/BytecodeVM.h"
#include "obs/Telemetry.h"
#include "support/Prng.h"
#include "support/StringUtils.h"
#include "support/WrapInt.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>

using namespace sest;

namespace {

/// A resolved memory location (one cell).
struct Loc {
  uint32_t Space = 0;
  int64_t Offset = 0;
};

class Interpreter {
public:
  Interpreter(const TranslationUnit &Unit, const CfgModule &Cfgs,
              const ProgramInput &Input, const InterpOptions &Options)
      : Unit(Unit), Cfgs(Cfgs), Input(Input), Options(Options),
        Rng(Input.RandSeed) {}

  RunResult run();

private:
  void flushTelemetry() const;

  //===--------------------------------------------------------------------===//
  // Failure handling (no exceptions: a sticky flag short-circuits).
  //===--------------------------------------------------------------------===//

  Value fail(const std::string &Message) {
    if (!Failed && !Exited) {
      Failed = true;
      ErrorMsg = Message;
    }
    return Value::makeInt(0);
  }

  /// A resource-limit abort: records which limit was hit and appends the
  /// run's high-water marks to the diagnostic.
  Value failLimit(RunLimit Limit, const std::string &Message) {
    if (!Failed && !Exited) {
      LimitHit = Limit;
      fail(Message + " (" + usageSummary() + ")");
    }
    return Value::makeInt(0);
  }

  std::string usageSummary() const {
    return "steps " + std::to_string(Steps) + ", call-depth high-water " +
           std::to_string(CallDepthHighWater) + ", heap high-water " +
           std::to_string(HeapHighWater) + " cells";
  }

  bool halted() const { return Failed || Exited; }

  //===--------------------------------------------------------------------===//
  // Memory
  //===--------------------------------------------------------------------===//

  struct HeapBlock {
    std::vector<Value> Cells;
    bool Freed = false;
  };

  Value *resolve(Loc L, const char *What) {
    switch (L.Space) {
    case static_cast<uint32_t>(MemSpace::Null):
      fail(std::string("null pointer ") + What);
      return nullptr;
    case static_cast<uint32_t>(MemSpace::Global):
      if (L.Offset < 0 || L.Offset >= static_cast<int64_t>(Globals.size())) {
        fail(std::string("global ") + What + " out of bounds");
        return nullptr;
      }
      return &Globals[L.Offset];
    case static_cast<uint32_t>(MemSpace::Stack):
      if (L.Offset < 0 || L.Offset >= static_cast<int64_t>(Stack.size())) {
        fail(std::string("stack ") + What + " out of bounds");
        return nullptr;
      }
      return &Stack[L.Offset];
    default: {
      size_t Idx = L.Space - static_cast<uint32_t>(MemSpace::HeapBase);
      if (Idx >= Heap.size()) {
        fail(std::string("wild pointer ") + What);
        return nullptr;
      }
      HeapBlock &B = Heap[Idx];
      if (B.Freed) {
        fail(std::string("use-after-free ") + What);
        return nullptr;
      }
      if (L.Offset < 0 || L.Offset >= static_cast<int64_t>(B.Cells.size())) {
        fail(std::string("heap ") + What + " out of bounds");
        return nullptr;
      }
      return &B.Cells[L.Offset];
    }
    }
  }

  Value loadCell(Loc L) {
    Value *P = resolve(L, "read");
    return P ? *P : Value::makeInt(0);
  }
  void storeCell(Loc L, Value V) {
    if (Value *P = resolve(L, "write"))
      *P = V;
  }
  /// Copies \p N cells from \p Src to \p Dst (struct assignment / struct
  /// arguments).
  void copyCells(Loc Dst, Loc Src, int64_t N) {
    for (int64_t I = 0; I < N && !halted(); ++I) {
      Value V = loadCell({Src.Space, Src.Offset + I});
      storeCell({Dst.Space, Dst.Offset + I}, V);
    }
  }

  Loc varLoc(const VarDecl *V) const {
    if (V->storage() == StorageKind::Global)
      return {static_cast<uint32_t>(MemSpace::Global), V->cellOffset()};
    return {static_cast<uint32_t>(MemSpace::Stack),
            FrameBase + V->cellOffset()};
  }

  //===--------------------------------------------------------------------===//
  // Conversions
  //===--------------------------------------------------------------------===//

  /// Converts \p V to the representation of static type \p Ty (assignment,
  /// argument passing, return, cast).
  Value convert(Value V, const Type *Ty) {
    if (!Ty)
      return V;
    switch (Ty->kind()) {
    case TypeKind::Int:
    case TypeKind::Char:
      return Value::makeInt(V.asInt());
    case TypeKind::Double:
      return Value::makeDouble(V.asDouble());
    case TypeKind::Pointer: {
      const Type *Pointee = typeCast<PointerType>(Ty)->pointee();
      if (Pointee->isFunction()) {
        if (V.isFnPtr())
          return V;
        if (V.isInt() && V.IntVal == 0)
          return Value::makeFn(nullptr);
        if (V.isPtr() && V.PtrVal.isNull())
          return Value::makeFn(nullptr);
        return V; // tolerated; call-through will diagnose
      }
      if (V.isPtr())
        return V;
      if (V.isInt())
        return V.IntVal == 0
                   ? Value::makeNull()
                   : Value::makePtr(
                         {static_cast<uint32_t>(MemSpace::Null), V.IntVal});
      return V;
    }
    default:
      return V;
    }
  }

  //===--------------------------------------------------------------------===//
  // Cost / step accounting
  //===--------------------------------------------------------------------===//

  void tick() {
    ++Steps;
    if (CurSelfSteps)
      ++*CurSelfSteps;
    Cycles += CostFactor;
    if (Steps > Options.MaxSteps)
      failLimit(RunLimit::Steps,
                "execution step limit exceeded (MaxSteps=" +
                    std::to_string(Options.MaxSteps) + ")");
  }

  double factorFor(const FunctionDecl *F) const {
    return Options.OptimizedFunctions.count(F) ? Options.OptimizedCostFactor
                                               : 1.0;
  }

  //===--------------------------------------------------------------------===//
  // Expression evaluation
  //===--------------------------------------------------------------------===//

  Value evalExpr(const Expr *E);
  Loc evalLValue(const Expr *E);
  Value evalUnary(const UnaryExpr *E);
  Value evalBinary(const BinaryExpr *E);
  Value applyBinary(BinaryOp Op, Value L, Value R, const Expr *E,
                    const Type *LhsTy);
  Value evalAssign(const AssignExpr *E);
  Value evalCall(const CallExpr *E);
  Value evalBuiltin(const FunctionDecl *F, const std::vector<Value> &Args);

  /// Pointer step size for arithmetic on \p PtrTy (cells per element).
  int64_t strideOf(const Type *PtrTy) {
    const auto *PT = typeDynCast<PointerType>(PtrTy);
    if (!PT)
      return 1;
    int64_t S = PT->pointee()->sizeInCells();
    return S > 0 ? S : 1;
  }

  //===--------------------------------------------------------------------===//
  // Statements / functions
  //===--------------------------------------------------------------------===//

  void initVariable(const VarDecl *V);
  void fillInitializer(Loc Base, const Type *Ty, const Expr *Init);
  void zeroCells(Loc Base, int64_t N) {
    for (int64_t I = 0; I < N; ++I)
      storeCell({Base.Space, Base.Offset + I}, Value::makeInt(0));
  }

  Value callFunction(const FunctionDecl *F, const std::vector<Value> &Args,
                     const std::vector<std::pair<Loc, int64_t>> &StructArgs,
                     const std::vector<bool> &IsStructArg);
  Value executeBody(const FunctionDecl *F);

  void setupGlobals();
  Loc stringLoc(uint32_t StringId) const {
    return {static_cast<uint32_t>(MemSpace::Global), StringBase[StringId]};
  }

  //===--------------------------------------------------------------------===//
  // Builtin helpers
  //===--------------------------------------------------------------------===//

  int readCharFromInput() {
    if (InPos >= Input.Text.size())
      return -1;
    return static_cast<unsigned char>(Input.Text[InPos++]);
  }
  int64_t readIntFromInput() {
    while (InPos < Input.Text.size() &&
           std::isspace(static_cast<unsigned char>(Input.Text[InPos])))
      ++InPos;
    if (InPos >= Input.Text.size())
      return -1;
    bool Neg = false;
    if (Input.Text[InPos] == '-') {
      Neg = true;
      ++InPos;
    }
    bool Any = false;
    int64_t V = 0;
    while (InPos < Input.Text.size() &&
           std::isdigit(static_cast<unsigned char>(Input.Text[InPos]))) {
      V = V * 10 + (Input.Text[InPos] - '0');
      ++InPos;
      Any = true;
    }
    if (!Any)
      return -1;
    return Neg ? -V : V;
  }

  //===--------------------------------------------------------------------===//
  // State
  //===--------------------------------------------------------------------===//

  const TranslationUnit &Unit;
  const CfgModule &Cfgs;
  const ProgramInput &Input;
  const InterpOptions &Options;

  std::vector<Value> Globals;
  std::vector<Value> Stack;
  std::vector<HeapBlock> Heap;
  int64_t HeapCellsUsed = 0;
  int64_t HeapHighWater = 0;
  std::vector<int64_t> StringBase;
  int64_t FrameBase = 0;
  unsigned CallDepth = 0;
  unsigned CallDepthHighWater = 0;
  RunLimit LimitHit = RunLimit::None;
  /// Per-function self step counts (steps taken while the function's own
  /// frame is active, excluding callees), indexed by function id.
  std::vector<uint64_t> SelfSteps;
  uint64_t *CurSelfSteps = nullptr;

  /// Block positions under the run's layout (see layoutPositions).
  std::vector<std::vector<uint32_t>> LayoutPos;
  LayoutCostCounters LayoutCost;

  Profile Prof;
  std::string Output;

  bool Failed = false;
  bool Exited = false;
  std::string ErrorMsg;
  int64_t ExitVal = 0;

  uint64_t Steps = 0;
  double Cycles = 0;
  double CostFactor = 1.0;

  size_t InPos = 0;
  Prng Rng;
  /// Host-stack anchor captured at run() entry; see
  /// InterpOptions::MaxHostStackBytes.
  uintptr_t HostStackBase = 0;
};

//===----------------------------------------------------------------------===//
// Globals and program startup
//===----------------------------------------------------------------------===//

void Interpreter::setupGlobals() {
  // Layout: [globals][string literals...], each string NUL-terminated.
  int64_t Total = Unit.GlobalSizeCells;
  StringBase.resize(Unit.StringTable.size());
  for (size_t I = 0; I < Unit.StringTable.size(); ++I) {
    StringBase[I] = Total;
    Total += static_cast<int64_t>(Unit.StringTable[I].size()) + 1;
  }
  Globals.assign(Total, Value::makeInt(0));
  for (size_t I = 0; I < Unit.StringTable.size(); ++I) {
    const std::string &S = Unit.StringTable[I];
    for (size_t J = 0; J < S.size(); ++J)
      Globals[StringBase[I] + J] =
          Value::makeInt(static_cast<unsigned char>(S[J]));
    // Trailing cell is already zero (NUL).
  }

  // Initializers run in declaration order (sema rejected calls in them).
  for (const VarDecl *G : Unit.Globals) {
    if (halted())
      return;
    if (G->cellOffset() < 0)
      continue; // declaration had errors
    if (G->init())
      fillInitializer(varLoc(G), G->type(), G->init());
  }
}

RunResult Interpreter::run() {
  obs::ScopedPhase Phase("interp.run", Input.Name);
  // Size the profile.
  Prof.ProgramName = Unit.Functions.empty() ? "" : "program";
  Prof.InputName = Input.Name;
  Prof.Functions.resize(Unit.Functions.size());
  SelfSteps.assign(Unit.Functions.size(), 0);
  for (const auto &[F, G] : Cfgs.all()) {
    FunctionProfile &FP = Prof.Functions[F->functionId()];
    FP.BlockCounts.assign(G->size(), 0.0);
    FP.ArcCounts.resize(G->size());
    for (const auto &B : G->blocks())
      FP.ArcCounts[B->id()].assign(B->successors().size(), 0.0);
  }
  Prof.CallSiteCounts.assign(Unit.NumCallSites, 0.0);
  LayoutPos = layoutPositions(Unit, Cfgs, Options.Layout);

  char HostStackAnchor;
  HostStackBase = reinterpret_cast<uintptr_t>(&HostStackAnchor);

  setupGlobals();

  RunResult R;
  const FunctionDecl *Main = Unit.findFunction("main");
  if (!Main || !Main->isDefined()) {
    R.Error = "program has no main function";
    return R;
  }
  if (!Main->params().empty()) {
    R.Error = "main must take no parameters";
    return R;
  }

  Value Ret;
  if (!halted())
    Ret = callFunction(Main, {}, {}, std::vector<bool>(0));

  R.Ok = !Failed;
  R.Error = ErrorMsg;
  R.ExitCode = Exited ? ExitVal : Ret.asInt();
  R.Output = std::move(Output);
  Prof.TotalCycles = Cycles;
  R.TheProfile = std::move(Prof);
  R.LimitHit = LimitHit;
  R.StepsExecuted = Steps;
  R.HeapCellsHighWater = HeapHighWater;
  R.CallDepthHighWater = CallDepthHighWater;
  R.LayoutCost = LayoutCost;
  flushTelemetry();
  return R;
}

/// One-shot flush of the run's accumulated resource usage into the
/// ambient telemetry context. The hot loop only touches plain members;
/// all counter traffic happens here.
void Interpreter::flushTelemetry() const {
  if (!obs::telemetryActive())
    return;
  obs::counterAdd("interp.runs");
  obs::counterAdd("interp.steps.executed", static_cast<double>(Steps));
  obs::gaugeMax("interp.heap_cells.high_water",
                static_cast<double>(HeapHighWater));
  obs::gaugeMax("interp.call_depth.high_water",
                static_cast<double>(CallDepthHighWater));
  if (LimitHit != RunLimit::None)
    obs::counterAdd(std::string("interp.limit_hit.") +
                    runLimitName(LimitHit));
  obs::counterAdd("interp.layout.fall_through",
                  static_cast<double>(LayoutCost.FallThrough));
  obs::counterAdd("interp.layout.taken",
                  static_cast<double>(LayoutCost.Taken));
  obs::counterAdd("interp.layout.calls",
                  static_cast<double>(LayoutCost.Calls));
  obs::counterAdd("interp.layout.returns",
                  static_cast<double>(LayoutCost.Returns));
  for (size_t F = 0; F < SelfSteps.size(); ++F)
    if (SelfSteps[F])
      obs::counterAdd("interp.fn_self_steps." + Unit.Functions[F]->name(),
                      static_cast<double>(SelfSteps[F]));
}

//===----------------------------------------------------------------------===//
// Variable initialization
//===----------------------------------------------------------------------===//

void Interpreter::fillInitializer(Loc Base, const Type *Ty,
                                  const Expr *Init) {
  if (halted())
    return;
  if (const auto *List = exprDynCast<InitListExpr>(Init)) {
    zeroCells(Base, Ty->sizeInCells());
    if (const auto *AT = typeDynCast<ArrayType>(Ty)) {
      int64_t Stride = AT->element()->sizeInCells();
      for (size_t I = 0; I < List->elements().size(); ++I)
        fillInitializer(
            {Base.Space, Base.Offset + static_cast<int64_t>(I) * Stride},
            AT->element(), List->elements()[I]);
      return;
    }
    if (const auto *ST = typeDynCast<StructType>(Ty)) {
      for (size_t I = 0; I < List->elements().size() &&
                         I < ST->fields().size();
           ++I)
        fillInitializer(
            {Base.Space, Base.Offset + ST->fields()[I].OffsetCells},
            ST->fields()[I].Ty, List->elements()[I]);
      return;
    }
    fail("braced initializer for scalar");
    return;
  }

  // "char buf[N] = "...";"
  if (const auto *Str = exprDynCast<StringLitExpr>(Init)) {
    if (const auto *AT = typeDynCast<ArrayType>(Ty);
        AT && AT->element()->isChar()) {
      zeroCells(Base, Ty->sizeInCells());
      const std::string &S = Str->value();
      for (size_t I = 0; I < S.size(); ++I)
        storeCell({Base.Space, Base.Offset + static_cast<int64_t>(I)},
                  Value::makeInt(static_cast<unsigned char>(S[I])));
      return;
    }
  }

  Value V = convert(evalExpr(Init), Ty);
  storeCell(Base, V);
}

void Interpreter::initVariable(const VarDecl *V) {
  Loc Base = varLoc(V);
  if (!V->init()) {
    zeroCells(Base, V->type()->sizeInCells());
    return;
  }
  fillInitializer(Base, V->type(), V->init());
}

//===----------------------------------------------------------------------===//
// Function execution
//===----------------------------------------------------------------------===//

Value Interpreter::callFunction(
    const FunctionDecl *F, const std::vector<Value> &Args,
    const std::vector<std::pair<Loc, int64_t>> &StructArgs,
    const std::vector<bool> &IsStructArg) {
  if (CallDepth >= Options.MaxCallDepth)
    return failLimit(RunLimit::CallDepth,
                     "call depth limit exceeded in '" + F->name() +
                         "' (MaxCallDepth=" +
                         std::to_string(Options.MaxCallDepth) + ")");
  // The interpreter recurses on the host stack (callFunction ->
  // executeBody -> evalExpr -> callFunction); on large-frame builds the
  // host stack can overflow long before MaxCallDepth, so budget it
  // directly.
  char HostStackProbe;
  uintptr_t Here = reinterpret_cast<uintptr_t>(&HostStackProbe);
  size_t Used = HostStackBase > Here ? HostStackBase - Here
                                     : Here - HostStackBase;
  if (Used > Options.MaxHostStackBytes)
    return failLimit(RunLimit::HostStack,
                     "call depth limit exceeded in '" + F->name() +
                         "' (host stack budget, MaxHostStackBytes=" +
                         std::to_string(Options.MaxHostStackBytes) + ")");
  const Cfg *G = Cfgs.cfg(F);
  if (!G)
    return fail("call to undefined function '" + F->name() + "'");

  Prof.Functions[F->functionId()].EntryCount += 1;
  ++LayoutCost.Calls;

  int64_t SavedBase = FrameBase;
  double SavedFactor = CostFactor;
  uint64_t *SavedSelf = CurSelfSteps;
  FrameBase = static_cast<int64_t>(Stack.size());
  if (Stack.size() + F->frameSizeCells() > (1u << 24))
    return failLimit(RunLimit::HostFrame,
                     "stack overflow in '" + F->name() + "'");
  Stack.resize(Stack.size() + F->frameSizeCells(), Value::makeInt(0));
  CostFactor = factorFor(F);
  if (F->functionId() < SelfSteps.size())
    CurSelfSteps = &SelfSteps[F->functionId()];
  ++CallDepth;
  CallDepthHighWater = std::max(CallDepthHighWater, CallDepth);

  // Bind parameters.
  size_t ScalarIdx = 0, StructIdx = 0;
  for (size_t I = 0; I < F->params().size(); ++I) {
    const VarDecl *P = F->params()[I];
    Loc PL = varLoc(P);
    if (I < IsStructArg.size() && IsStructArg[I]) {
      const auto &[Src, N] = StructArgs[StructIdx++];
      copyCells(PL, Src, N);
    } else {
      storeCell(PL, convert(Args[ScalarIdx++], P->type()));
    }
  }

  Value Ret = executeBody(F);

  --CallDepth;
  CostFactor = SavedFactor;
  CurSelfSteps = SavedSelf;
  Stack.resize(FrameBase);
  FrameBase = SavedBase;
  return Ret;
}

Value Interpreter::executeBody(const FunctionDecl *F) {
  const Cfg *G = Cfgs.cfg(F);
  FunctionProfile &FP = Prof.Functions[F->functionId()];
  const std::vector<uint32_t> &Pos = LayoutPos[F->functionId()];
  const BasicBlock *B = G->entry();

  while (!halted()) {
    tick();
    FP.BlockCounts[B->id()] += 1;

    for (const CfgAction &A : B->actions()) {
      if (halted())
        return Value::makeInt(0);
      if (A.ActionKind == CfgAction::Kind::Eval)
        evalExpr(A.E);
      else if (A.ActionKind == CfgAction::Kind::DeclInit)
        initVariable(A.Var);
      else
        zeroCells({static_cast<uint32_t>(MemSpace::Stack),
                   FrameBase + A.FrameOffset},
                  A.CellCount);
    }
    if (halted())
      return Value::makeInt(0);

    size_t Slot = 0;
    switch (B->terminator()) {
    case TerminatorKind::Goto:
      Slot = 0;
      break;
    case TerminatorKind::CondBranch: {
      Value C = evalExpr(B->condOrValue());
      Slot = C.isTruthy() ? 0 : 1;
      break;
    }
    case TerminatorKind::Switch: {
      int64_t V = evalExpr(B->condOrValue()).asInt();
      const auto &Cases = B->switchCases();
      Slot = Cases.size(); // default slot
      for (size_t I = 0; I < Cases.size(); ++I)
        if (Cases[I].Value == V) {
          Slot = I;
          break;
        }
      break;
    }
    case TerminatorKind::Return: {
      if (!B->condOrValue()) {
        ++LayoutCost.Returns;
        return Value::makeInt(0);
      }
      Value V = evalExpr(B->condOrValue());
      // The VM halts before reaching its Ret instruction when the value
      // expression trips a limit; count only completed returns so both
      // engines agree.
      if (!halted())
        ++LayoutCost.Returns;
      return convert(V, F->type()->returnType());
    }
    case TerminatorKind::Unreachable:
      return fail("control fell into an unreachable block in '" +
                  F->name() + "'");
    }
    if (halted())
      return Value::makeInt(0);
    FP.ArcCounts[B->id()][Slot] += 1;
    const BasicBlock *Next = B->successors()[Slot];
    if (Pos[Next->id()] == Pos[B->id()] + 1)
      ++LayoutCost.FallThrough;
    else
      ++LayoutCost.Taken;
    B = Next;
  }
  return Value::makeInt(0);
}

//===----------------------------------------------------------------------===//
// Expression evaluation
//===----------------------------------------------------------------------===//

Value Interpreter::evalExpr(const Expr *E) {
  if (halted())
    return Value::makeInt(0);
  tick();

  switch (E->kind()) {
  case ExprKind::IntLit:
    return Value::makeInt(exprCast<IntLitExpr>(E)->value());
  case ExprKind::DoubleLit:
    return Value::makeDouble(exprCast<DoubleLitExpr>(E)->value());
  case ExprKind::StringLit: {
    Loc L = stringLoc(exprCast<StringLitExpr>(E)->stringId());
    return Value::makePtr({L.Space, L.Offset});
  }
  case ExprKind::DeclRef: {
    const auto *Ref = exprCast<DeclRefExpr>(E);
    if (const auto *F = declDynCast<FunctionDecl>(Ref->decl()))
      return Value::makeFn(F);
    const auto *V = declDynCast<VarDecl>(Ref->decl());
    if (!V)
      return fail("unresolved reference '" + Ref->name() + "'");
    Loc L = varLoc(V);
    // Arrays and structs evaluate to their address (decay / aggregate
    // reference).
    if (V->type()->isArray() || V->type()->isStruct())
      return Value::makePtr({L.Space, L.Offset});
    return loadCell(L);
  }
  case ExprKind::Unary:
    return evalUnary(exprCast<UnaryExpr>(E));
  case ExprKind::Binary:
    return evalBinary(exprCast<BinaryExpr>(E));
  case ExprKind::Assign:
    return evalAssign(exprCast<AssignExpr>(E));
  case ExprKind::Conditional: {
    const auto *C = exprCast<ConditionalExpr>(E);
    Value Cond = evalExpr(C->cond());
    if (halted())
      return Value::makeInt(0);
    return evalExpr(Cond.isTruthy() ? C->trueExpr() : C->falseExpr());
  }
  case ExprKind::Call:
    return evalCall(exprCast<CallExpr>(E));
  case ExprKind::Index:
  case ExprKind::Member: {
    Loc L = evalLValue(E);
    if (halted())
      return Value::makeInt(0);
    if (E->type() && (E->type()->isArray() || E->type()->isStruct()))
      return Value::makePtr({L.Space, L.Offset});
    return loadCell(L);
  }
  case ExprKind::Cast: {
    const auto *C = exprCast<CastExpr>(E);
    Value V = evalExpr(C->operand());
    if (C->targetType()->isVoid())
      return Value::makeInt(0);
    return convert(V, C->targetType());
  }
  case ExprKind::InitList:
    return fail("initializer list in expression context");
  }
  return Value::makeInt(0);
}

Loc Interpreter::evalLValue(const Expr *E) {
  if (halted())
    return {};
  switch (E->kind()) {
  case ExprKind::DeclRef: {
    const auto *Ref = exprCast<DeclRefExpr>(E);
    const auto *V = declDynCast<VarDecl>(Ref->decl());
    if (!V) {
      fail("cannot use '" + Ref->name() + "' as a location");
      return {};
    }
    return varLoc(V);
  }
  case ExprKind::Unary: {
    const auto *U = exprCast<UnaryExpr>(E);
    if (U->op() != UnaryOp::Deref) {
      fail("expression is not assignable");
      return {};
    }
    Value P = evalExpr(U->operand());
    if (!P.isPtr()) {
      fail("dereference of non-pointer value");
      return {};
    }
    return {P.PtrVal.Space, P.PtrVal.Offset};
  }
  case ExprKind::Index: {
    const auto *I = exprCast<IndexExpr>(E);
    Value Base = evalExpr(I->base());
    Value Idx = evalExpr(I->index());
    if (halted())
      return {};
    if (!Base.isPtr()) {
      fail("indexing a non-pointer value");
      return {};
    }
    int64_t Stride = E->type() ? E->type()->sizeInCells() : 1;
    if (Stride <= 0)
      Stride = 1;
    return {Base.PtrVal.Space,
            Base.PtrVal.Offset + Idx.asInt() * Stride};
  }
  case ExprKind::Member: {
    const auto *M = exprCast<MemberExpr>(E);
    if (M->isArrow()) {
      Value Base = evalExpr(M->base());
      if (halted())
        return {};
      if (!Base.isPtr()) {
        fail("'->' applied to non-pointer value");
        return {};
      }
      return {Base.PtrVal.Space, Base.PtrVal.Offset + M->fieldOffset()};
    }
    Loc Base = evalLValue(M->base());
    if (halted())
      return {};
    return {Base.Space, Base.Offset + M->fieldOffset()};
  }
  default:
    fail("expression is not assignable");
    return {};
  }
}

Value Interpreter::evalUnary(const UnaryExpr *E) {
  switch (E->op()) {
  case UnaryOp::Deref: {
    Value P = evalExpr(E->operand());
    if (halted())
      return Value::makeInt(0);
    // Dereferencing a function pointer yields the function again.
    if (P.isFnPtr())
      return P;
    if (!P.isPtr())
      return fail("dereference of non-pointer value");
    if (E->type() && (E->type()->isArray() || E->type()->isStruct() ||
                      E->type()->isFunction()))
      return P;
    return loadCell({P.PtrVal.Space, P.PtrVal.Offset});
  }
  case UnaryOp::AddrOf: {
    // &function
    if (const auto *Ref = exprDynCast<DeclRefExpr>(E->operand()))
      if (const auto *F = declDynCast<FunctionDecl>(Ref->decl()))
        return Value::makeFn(F);
    Loc L = evalLValue(E->operand());
    if (halted())
      return Value::makeInt(0);
    return Value::makePtr({L.Space, L.Offset});
  }
  case UnaryOp::Neg: {
    Value V = evalExpr(E->operand());
    if (V.isDouble())
      return Value::makeDouble(-V.DoubleVal);
    return Value::makeInt(-V.asInt());
  }
  case UnaryOp::LogicalNot: {
    Value V = evalExpr(E->operand());
    return Value::makeInt(V.isTruthy() ? 0 : 1);
  }
  case UnaryOp::BitNot: {
    Value V = evalExpr(E->operand());
    return Value::makeInt(~V.asInt());
  }
  case UnaryOp::PreInc:
  case UnaryOp::PreDec:
  case UnaryOp::PostInc:
  case UnaryOp::PostDec: {
    bool IsInc = E->op() == UnaryOp::PreInc || E->op() == UnaryOp::PostInc;
    bool IsPre = E->op() == UnaryOp::PreInc || E->op() == UnaryOp::PreDec;
    Loc L = evalLValue(E->operand());
    if (halted())
      return Value::makeInt(0);
    Value Old = loadCell(L);
    Value New;
    if (Old.isPtr()) {
      int64_t Stride = strideOf(E->operand()->type());
      RuntimePtr P = Old.PtrVal;
      P.Offset += IsInc ? Stride : -Stride;
      New = Value::makePtr(P);
    } else if (Old.isDouble()) {
      New = Value::makeDouble(Old.DoubleVal + (IsInc ? 1.0 : -1.0));
    } else {
      New = Value::makeInt(Old.asInt() + (IsInc ? 1 : -1));
    }
    storeCell(L, New);
    return IsPre ? New : Old;
  }
  }
  return Value::makeInt(0);
}

Value Interpreter::applyBinary(BinaryOp Op, Value L, Value R, const Expr *E,
                               const Type *LhsTy) {
  switch (Op) {
  case BinaryOp::Add: {
    if (L.isPtr() || R.isPtr()) {
      Value P = L.isPtr() ? L : R;
      Value N = L.isPtr() ? R : L;
      int64_t Stride = strideOf(E->type());
      RuntimePtr Out = P.PtrVal;
      Out.Offset += N.asInt() * Stride;
      return Value::makePtr(Out);
    }
    if (L.isDouble() || R.isDouble())
      return Value::makeDouble(L.asDouble() + R.asDouble());
    return Value::makeInt(wrapAdd(L.asInt(), R.asInt()));
  }
  case BinaryOp::Sub: {
    if (L.isPtr() && R.isPtr()) {
      if (L.PtrVal.Space != R.PtrVal.Space)
        return fail("subtracting pointers into different objects");
      int64_t Stride = strideOf(LhsTy);
      return Value::makeInt((L.PtrVal.Offset - R.PtrVal.Offset) / Stride);
    }
    if (L.isPtr()) {
      int64_t Stride = strideOf(E->type());
      RuntimePtr Out = L.PtrVal;
      Out.Offset -= R.asInt() * Stride;
      return Value::makePtr(Out);
    }
    if (L.isDouble() || R.isDouble())
      return Value::makeDouble(L.asDouble() - R.asDouble());
    return Value::makeInt(wrapSub(L.asInt(), R.asInt()));
  }
  case BinaryOp::Mul:
    if (L.isDouble() || R.isDouble())
      return Value::makeDouble(L.asDouble() * R.asDouble());
    return Value::makeInt(wrapMul(L.asInt(), R.asInt()));
  case BinaryOp::Div:
    if (L.isDouble() || R.isDouble()) {
      double D = R.asDouble();
      if (D == 0.0)
        return fail("floating division by zero");
      return Value::makeDouble(L.asDouble() / D);
    }
    if (R.asInt() == 0)
      return fail("integer division by zero");
    return Value::makeInt(wrapDiv(L.asInt(), R.asInt()));
  case BinaryOp::Rem:
    if (R.asInt() == 0)
      return fail("integer remainder by zero");
    return Value::makeInt(wrapRem(L.asInt(), R.asInt()));
  case BinaryOp::Shl: {
    int64_t Sh = R.asInt();
    if (Sh < 0 || Sh > 63)
      return fail("shift amount out of range");
    return Value::makeInt(static_cast<int64_t>(
        static_cast<uint64_t>(L.asInt()) << Sh));
  }
  case BinaryOp::Shr: {
    int64_t Sh = R.asInt();
    if (Sh < 0 || Sh > 63)
      return fail("shift amount out of range");
    return Value::makeInt(L.asInt() >> Sh);
  }
  case BinaryOp::BitAnd:
    return Value::makeInt(L.asInt() & R.asInt());
  case BinaryOp::BitOr:
    return Value::makeInt(L.asInt() | R.asInt());
  case BinaryOp::BitXor:
    return Value::makeInt(L.asInt() ^ R.asInt());
  case BinaryOp::Lt:
  case BinaryOp::Gt:
  case BinaryOp::Le:
  case BinaryOp::Ge: {
    double Cmp;
    if (L.isPtr() && R.isPtr()) {
      if (L.PtrVal.Space != R.PtrVal.Space)
        Cmp = L.PtrVal.Space < R.PtrVal.Space ? -1 : 1;
      else
        Cmp = L.PtrVal.Offset < R.PtrVal.Offset
                  ? -1
                  : (L.PtrVal.Offset > R.PtrVal.Offset ? 1 : 0);
    } else if (L.isDouble() || R.isDouble()) {
      double A = L.asDouble(), B = R.asDouble();
      Cmp = A < B ? -1 : (A > B ? 1 : 0);
    } else {
      int64_t A = L.asInt(), B = R.asInt();
      Cmp = A < B ? -1 : (A > B ? 1 : 0);
    }
    bool Result = false;
    switch (Op) {
    case BinaryOp::Lt:
      Result = Cmp < 0;
      break;
    case BinaryOp::Gt:
      Result = Cmp > 0;
      break;
    case BinaryOp::Le:
      Result = Cmp <= 0;
      break;
    case BinaryOp::Ge:
      Result = Cmp >= 0;
      break;
    default:
      break;
    }
    return Value::makeInt(Result ? 1 : 0);
  }
  case BinaryOp::Eq:
  case BinaryOp::Ne: {
    bool Equal;
    if (L.isPtr() && R.isPtr())
      Equal = L.PtrVal == R.PtrVal;
    else if (L.isFnPtr() || R.isFnPtr())
      Equal = L.isFnPtr() && R.isFnPtr() ? L.FnVal == R.FnVal
              : (L.isFnPtr() ? L.FnVal == nullptr && !R.isTruthy()
                             : R.FnVal == nullptr && !L.isTruthy());
    else if (L.isPtr() || R.isPtr()) {
      // Pointer vs integer: equal iff both are "null-ish zero".
      const Value &P = L.isPtr() ? L : R;
      const Value &N = L.isPtr() ? R : L;
      Equal = P.PtrVal.isNull() && N.asInt() == 0;
    } else if (L.isDouble() || R.isDouble())
      Equal = L.asDouble() == R.asDouble();
    else
      Equal = L.asInt() == R.asInt();
    return Value::makeInt((Op == BinaryOp::Eq) == Equal ? 1 : 0);
  }
  case BinaryOp::LogicalAnd:
  case BinaryOp::LogicalOr:
    break; // handled by evalBinary
  }
  return Value::makeInt(0);
}

Value Interpreter::evalBinary(const BinaryExpr *E) {
  if (E->op() == BinaryOp::LogicalAnd) {
    Value L = evalExpr(E->lhs());
    if (halted() || !L.isTruthy())
      return Value::makeInt(0);
    return Value::makeInt(evalExpr(E->rhs()).isTruthy() ? 1 : 0);
  }
  if (E->op() == BinaryOp::LogicalOr) {
    Value L = evalExpr(E->lhs());
    if (halted())
      return Value::makeInt(0);
    if (L.isTruthy())
      return Value::makeInt(1);
    return Value::makeInt(evalExpr(E->rhs()).isTruthy() ? 1 : 0);
  }
  Value L = evalExpr(E->lhs());
  Value R = evalExpr(E->rhs());
  if (halted())
    return Value::makeInt(0);
  return applyBinary(E->op(), L, R, E, E->lhs()->type());
}

Value Interpreter::evalAssign(const AssignExpr *E) {
  const Type *LhsTy = E->lhs()->type();

  // Struct assignment copies cells.
  if (LhsTy && LhsTy->isStruct()) {
    Loc Dst = evalLValue(E->lhs());
    Value Src = evalExpr(E->rhs());
    if (halted())
      return Value::makeInt(0);
    if (!Src.isPtr())
      return fail("struct assignment from non-aggregate value");
    copyCells(Dst, {Src.PtrVal.Space, Src.PtrVal.Offset},
              LhsTy->sizeInCells());
    return Value::makePtr({Dst.Space, Dst.Offset});
  }

  Loc Dst = evalLValue(E->lhs());
  if (halted())
    return Value::makeInt(0);

  Value V;
  if (E->compoundOp()) {
    Value Old = loadCell(Dst);
    Value R = evalExpr(E->rhs());
    if (halted())
      return Value::makeInt(0);
    // For "p += n", pointer stride comes from the LHS type.
    V = applyBinary(*E->compoundOp(), Old, R, E, LhsTy);
    // applyBinary uses E->type() for pointer strides; E->type() here is the
    // assignment's type == LHS type, so strides are correct.
  } else {
    V = evalExpr(E->rhs());
  }
  if (halted())
    return Value::makeInt(0);
  V = convert(V, LhsTy);
  storeCell(Dst, V);
  return V;
}

//===----------------------------------------------------------------------===//
// Calls and builtins
//===----------------------------------------------------------------------===//

Value Interpreter::evalCall(const CallExpr *E) {
  const FunctionDecl *Callee = E->directCallee();
  if (!Callee) {
    Value F = evalExpr(E->callee());
    if (halted())
      return Value::makeInt(0);
    if (!F.isFnPtr() || F.FnVal == nullptr)
      return fail("indirect call through a non-function value");
    Callee = F.FnVal;
  }

  if (E->callSiteId() != UINT32_MAX &&
      E->callSiteId() < Prof.CallSiteCounts.size())
    Prof.CallSiteCounts[E->callSiteId()] += 1;

  // Evaluate arguments left to right.
  const auto &ParamTypes = Callee->type()->params();
  std::vector<Value> Args;
  std::vector<std::pair<Loc, int64_t>> StructArgs;
  std::vector<bool> IsStructArg(E->args().size(), false);
  for (size_t I = 0; I < E->args().size(); ++I) {
    const Type *PTy = I < ParamTypes.size() ? ParamTypes[I] : nullptr;
    if (PTy && PTy->isStruct()) {
      Value Src = evalExpr(E->args()[I]);
      if (halted())
        return Value::makeInt(0);
      if (!Src.isPtr())
        return fail("struct argument is not an aggregate");
      StructArgs.push_back(
          {{Src.PtrVal.Space, Src.PtrVal.Offset}, PTy->sizeInCells()});
      IsStructArg[I] = true;
    } else {
      Args.push_back(evalExpr(E->args()[I]));
      if (halted())
        return Value::makeInt(0);
    }
  }

  if (Callee->isBuiltin())
    return evalBuiltin(Callee, Args);
  return callFunction(Callee, Args, StructArgs, IsStructArg);
}

Value Interpreter::evalBuiltin(const FunctionDecl *F,
                               const std::vector<Value> &Args) {
  switch (F->builtin()) {
  case BuiltinKind::PrintInt:
    Output += std::to_string(Args[0].asInt());
    return Value::makeInt(0);
  case BuiltinKind::PrintChar:
    Output += static_cast<char>(Args[0].asInt());
    return Value::makeInt(0);
  case BuiltinKind::PrintStr: {
    if (!Args[0].isPtr())
      return fail("print_str expects a string pointer");
    RuntimePtr P = Args[0].PtrVal;
    for (int64_t I = 0; I < (1 << 20); ++I) {
      Value C = loadCell({P.Space, P.Offset + I});
      if (halted())
        return Value::makeInt(0);
      int64_t Ch = C.asInt();
      if (Ch == 0)
        return Value::makeInt(0);
      Output += static_cast<char>(Ch);
    }
    return fail("unterminated string passed to print_str");
  }
  case BuiltinKind::PrintDouble: {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6g", Args[0].asDouble());
    Output += Buf;
    return Value::makeInt(0);
  }
  case BuiltinKind::ReadInt:
    return Value::makeInt(readIntFromInput());
  case BuiltinKind::ReadChar:
    return Value::makeInt(readCharFromInput());
  case BuiltinKind::Malloc: {
    int64_t N = Args[0].asInt();
    if (N <= 0)
      return Value::makeNull();
    if (HeapCellsUsed + N > Options.MaxHeapCells)
      return failLimit(RunLimit::HeapCells,
                       "heap limit exceeded (MaxHeapCells=" +
                           std::to_string(Options.MaxHeapCells) + ")");
    HeapCellsUsed += N;
    HeapHighWater = std::max(HeapHighWater, HeapCellsUsed);
    Heap.push_back(HeapBlock{std::vector<Value>(N, Value::makeInt(0)),
                             false});
    return Value::makePtr(
        {static_cast<uint32_t>(MemSpace::HeapBase) +
             static_cast<uint32_t>(Heap.size() - 1),
         0});
  }
  case BuiltinKind::Free: {
    if (!Args[0].isPtr())
      return fail("free of a non-pointer value");
    RuntimePtr P = Args[0].PtrVal;
    if (P.isNull())
      return Value::makeInt(0);
    size_t Idx = P.Space - static_cast<uint32_t>(MemSpace::HeapBase);
    if (P.Space < static_cast<uint32_t>(MemSpace::HeapBase) ||
        Idx >= Heap.size() || P.Offset != 0)
      return fail("free of a non-heap pointer");
    if (Heap[Idx].Freed)
      return fail("double free");
    HeapCellsUsed -= static_cast<int64_t>(Heap[Idx].Cells.size());
    Heap[Idx].Freed = true;
    Heap[Idx].Cells.clear();
    Heap[Idx].Cells.shrink_to_fit();
    return Value::makeInt(0);
  }
  case BuiltinKind::Abort:
    return fail("abort() called");
  case BuiltinKind::Exit:
    Exited = true;
    ExitVal = Args[0].asInt();
    return Value::makeInt(0);
  case BuiltinKind::Rand:
    return Value::makeInt(static_cast<int64_t>(Rng.next() >> 33));
  case BuiltinKind::Srand:
    Rng = Prng(static_cast<uint64_t>(Args[0].asInt()));
    return Value::makeInt(0);
  case BuiltinKind::Sqrt: {
    double D = Args[0].asDouble();
    if (D < 0)
      return fail("sqrt of a negative number");
    return Value::makeDouble(std::sqrt(D));
  }
  case BuiltinKind::Fabs:
    return Value::makeDouble(std::fabs(Args[0].asDouble()));
  case BuiltinKind::Floor:
    return Value::makeDouble(std::floor(Args[0].asDouble()));
  case BuiltinKind::None:
    break;
  }
  return fail("unknown builtin '" + F->name() + "'");
}

} // namespace

std::vector<std::vector<uint32_t>>
sest::layoutPositions(const TranslationUnit &Unit, const CfgModule &Cfgs,
                      const ProgramBlockOrder *Layout) {
  std::vector<std::vector<uint32_t>> Pos(Unit.Functions.size());
  for (const auto &[F, G] : Cfgs.all()) {
    std::vector<uint32_t> &Row = Pos[F->functionId()];
    Row.resize(G->size());
    const std::vector<uint32_t> *Order = nullptr;
    if (Layout && F->functionId() < Layout->size() &&
        (*Layout)[F->functionId()].size() == G->size())
      Order = &(*Layout)[F->functionId()];
    if (!Order) {
      for (uint32_t I = 0; I < Row.size(); ++I)
        Row[I] = I;
      continue;
    }
    for (uint32_t I = 0; I < Order->size(); ++I)
      Row[(*Order)[I] < Row.size() ? (*Order)[I] : 0] = I;
  }
  return Pos;
}

const char *sest::runLimitName(RunLimit L) {
  switch (L) {
  case RunLimit::None:
    return "none";
  case RunLimit::Steps:
    return "steps";
  case RunLimit::CallDepth:
    return "call-depth";
  case RunLimit::HostStack:
    return "host-stack";
  case RunLimit::HeapCells:
    return "heap-cells";
  case RunLimit::HostFrame:
    return "host-frame";
  }
  return "none";
}

const char *sest::interpEngineName(InterpEngine Engine) {
  switch (Engine) {
  case InterpEngine::Ast:
    return "ast";
  case InterpEngine::Bytecode:
    return "bytecode";
  case InterpEngine::Native:
    return "native";
  }
  return "unknown";
}

static sest::NativeRunHook NativeHook = nullptr;

void sest::setNativeRunHook(NativeRunHook Hook) { NativeHook = Hook; }

RunResult sest::runProgram(const TranslationUnit &Unit,
                           const CfgModule &Cfgs, const ProgramInput &Input,
                           const InterpOptions &Options) {
  if (Options.Engine == InterpEngine::Ast) {
    Interpreter I(Unit, Cfgs, Input, Options);
    return I.run();
  }
  if (Options.Engine == InterpEngine::Native) {
    if (NativeHook)
      return NativeHook(Unit, Cfgs, Input, Options);
    RunResult R;
    R.Error = "native backend unavailable: not linked into this binary";
    return R;
  }
  // One-shot bytecode run: lower, execute, discard. Callers that run
  // many inputs against one program (the suite runner) compile once and
  // use bc::runProgramBytecode directly.
  bc::BcModule Module = bc::compileBytecode(Unit, Cfgs);
  return bc::runProgramBytecode(Unit, Cfgs, Module, Input, Options);
}
