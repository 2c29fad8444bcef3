//===- interp/Interp.cpp - Profiling interpreter ---------------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "interp/RunState.h"
#include "interp/bytecode/BytecodeCompiler.h"
#include "interp/bytecode/BytecodeVM.h"

using namespace sest;

namespace {

/// The tree-walking engine: recurses over each expression's AST and walks
/// each function's CFG block by block. Everything it shares with the
/// bytecode VM lives in RunState.
class Interpreter : RunState {
public:
  Interpreter(const TranslationUnit &Unit, const CfgModule &Cfgs,
              const ProgramInput &Input, const InterpOptions &Options)
      : RunState(Unit, Cfgs, Input, Options) {}

  RunResult run();

private:
  Value evalExpr(const Expr *E);
  Loc evalLValue(const Expr *E);
  // Out of line: evalExpr recurses once per AST node, and with this
  // inlined into it the walker ran call-heavy programs (xlisp) about 30%
  // slower in bench_interp's run_ast.
  [[gnu::noinline]] Value evalUnary(const UnaryExpr *E);
  Value evalBinary(const BinaryExpr *E);
  Value evalAssign(const AssignExpr *E);
  Value evalCall(const CallExpr *E);

  void initVariable(const VarDecl *V);
  void fillInitializer(Loc Base, const Type *Ty, const Expr *Init);

  Value callFunction(const FunctionDecl *F, const std::vector<Value> &Args,
                     const std::vector<std::pair<Loc, int64_t>> &StructArgs,
                     const std::vector<bool> &IsStructArg);
  Value executeBody(const FunctionDecl *F);

  /// Block positions under the run's layout (see layoutPositions).
  std::vector<std::vector<uint32_t>> LayoutPos;
};

RunResult Interpreter::run() {
  obs::ScopedPhase Phase("interp.run", Input.Name);
  beginRun();
  LayoutPos = layoutPositions(Unit, Cfgs, Options.Layout);

  // Initializers run in declaration order (sema rejected calls in them).
  for (const VarDecl *G : Unit.Globals) {
    if (halted())
      break;
    if (G->cellOffset() < 0)
      continue; // declaration had errors
    if (G->init())
      fillInitializer(varLoc(G), G->type(), G->init());
  }

  RunResult R;
  const FunctionDecl *Main = findMain(R);
  if (!Main)
    return R;
  Value Ret;
  if (!halted())
    Ret = callFunction(Main, {}, {}, std::vector<bool>(0));
  return finishRun(Ret);
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
        fillInitializer(offsetBy(Base, static_cast<int64_t>(I) * Stride),
                        AT->element(), List->elements()[I]);
      return;
    }
    if (const auto *ST = typeDynCast<StructType>(Ty)) {
      for (size_t I = 0; I < List->elements().size() &&
                         I < ST->fields().size();
           ++I)
        fillInitializer(offsetBy(Base, ST->fields()[I].OffsetCells),
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
        storeCell(offsetBy(Base, static_cast<int64_t>(I)),
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
  SavedFrame Saved;
  if (!enterCall(F, Cfgs.cfg(F) != nullptr, Saved))
    return Value::makeInt(0);

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
  leaveCall(Saved);
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
    return Value::makePtr(
        stringLoc(exprCast<StringLitExpr>(E)->stringId()));
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
      return Value::makePtr(L);
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
      return Value::makePtr(L);
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
    return P.ptr();
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
    return offsetBy(Base.ptr(), wrapMul(Idx.asInt(), Stride));
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
      return offsetBy(Base.ptr(), M->fieldOffset());
    }
    Loc Base = evalLValue(M->base());
    if (halted())
      return {};
    return offsetBy(Base, M->fieldOffset());
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
    return loadCell(P.ptr());
  }
  case UnaryOp::AddrOf: {
    // &function
    if (const auto *Ref = exprDynCast<DeclRefExpr>(E->operand()))
      if (const auto *F = declDynCast<FunctionDecl>(Ref->decl()))
        return Value::makeFn(F);
    Loc L = evalLValue(E->operand());
    if (halted())
      return Value::makeInt(0);
    return Value::makePtr(L);
  }
  case UnaryOp::Neg: {
    Value V = evalExpr(E->operand());
    if (V.isDouble())
      return Value::makeDouble(-V.DoubleVal);
    return Value::makeInt(wrapSub(0, V.asInt()));
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
      New = Value::makePtr(offsetBy(Old.ptr(), IsInc ? Stride : -Stride));
    } else if (Old.isDouble()) {
      New = Value::makeDouble(Old.DoubleVal + (IsInc ? 1.0 : -1.0));
    } else {
      New = Value::makeInt(wrapAdd(Old.asInt(), IsInc ? 1 : -1));
    }
    storeCell(L, New);
    return IsPre ? New : Old;
  }
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
  return applyBinary(E->op(), L, R, strideOf(E->type()),
                     strideOf(E->lhs()->type()));
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
    copyCells(Dst, Src.ptr(), LhsTy->sizeInCells());
    return Value::makePtr(Dst);
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
    // E->type() here is the assignment's type == LHS type, so "p += n"
    // steps by the LHS's stride.
    V = applyBinary(*E->compoundOp(), Old, R, strideOf(E->type()),
                    strideOf(LhsTy));
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
      StructArgs.push_back({Src.ptr(), PTy->sizeInCells()});
      IsStructArg[I] = true;
    } else {
      Args.push_back(evalExpr(E->args()[I]));
      if (halted())
        return Value::makeInt(0);
    }
  }

  if (Callee->isBuiltin())
    return doBuiltin(Callee, Args.data(), Args.size());
  return callFunction(Callee, Args, StructArgs, IsStructArg);
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
