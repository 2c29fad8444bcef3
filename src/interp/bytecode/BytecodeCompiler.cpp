//===- interp/bytecode/BytecodeCompiler.cpp - CFG -> bytecode --------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
//
// Lowering rules mirror interp/Interp.cpp exactly; every deviation would
// show up as a profile or diagnostic difference in the differential test.
// The critical invariants:
//
//  * The tree-walker ticks once per AST expression node in preorder
//    (evalExpr entry, before operands). Ticks are lowered as explicit
//    Tick instructions placed before the node's operand code; adjacent
//    ticks (parent immediately followed by its first operand, with no
//    observable effect between) merge into one Tick with a count.
//
//  * Direct calls tick through TickCall, never a merged Tick: when the
//    step limit hits exactly at a call node, the walker still bumps the
//    call-site counter (and for zero-argument calls to defined functions
//    also the entry count and call-depth high-water); the VM replicates
//    that leak in the TickCall handler.
//
//  * evalLValue does not tick, but expressions nested inside an lvalue
//    do; compileLValue therefore emits no tick of its own.
//
//===----------------------------------------------------------------------===//

#include "interp/bytecode/BytecodeCompiler.h"

#include "cfg/Cfg.h"
#include "interp/RunState.h"
#include "lang/Ast.h"
#include "obs/Telemetry.h"

#include <cassert>
#include <chrono>

using namespace sest;
using namespace sest::bc;

namespace {

class ChunkCompiler {
public:
  ChunkCompiler(BcModule &M, const TranslationUnit &Unit, BcChunk &C)
      : M(M), Unit(Unit), C(C) {}

  void compileFunction(const Cfg &G);
  void compileGlobalInit();

private:
  //===--------------------------------------------------------------------===//
  // Emission
  //===--------------------------------------------------------------------===//

  size_t emit(BcInstr I) {
    C.Code.push_back(I);
    LastTick = -1;
    return C.Code.size() - 1;
  }

  /// One walker tick; merges into an immediately preceding Tick.
  void tick() {
    if (LastTick == static_cast<ptrdiff_t>(C.Code.size()) - 1 &&
        LastTick >= 0) {
      ++C.Code[LastTick].X;
      return;
    }
    BcInstr I;
    I.K = BcOp::Tick;
    I.X = 1;
    C.Code.push_back(I);
    LastTick = static_cast<ptrdiff_t>(C.Code.size()) - 1;
  }

  /// Marks the current position as a jump target, so a preceding Tick is
  /// no longer mergeable (control may join here mid-run).
  void pin() { LastTick = -1; }

  const std::string *msg(std::string S) {
    M.Messages.push_back(std::move(S));
    return &M.Messages.back();
  }

  uint16_t allocReg() {
    assert(RegTop < UINT16_MAX && "register window overflow");
    uint16_t R = RegTop++;
    if (RegTop > C.NumRegs)
      C.NumRegs = RegTop;
    return R;
  }

  // Small builders.
  BcInstr ins(BcOp K) {
    BcInstr I;
    I.K = K;
    return I;
  }
  void emitABX(BcOp K, uint16_t A, uint16_t B, int32_t X) {
    BcInstr I = ins(K);
    I.A = A;
    I.B = B;
    I.X = X;
    emit(I);
  }
  void emitFail(std::string S) {
    BcInstr I = ins(BcOp::FailMsg);
    I.Ptr = msg(std::move(S));
    emit(I);
  }

  /// Emits a forward branch with an unresolved target; returns the
  /// instruction index for patchTo().
  size_t emitBranch(BcOp K, uint16_t CondReg) {
    BcInstr I = ins(K);
    I.A = CondReg;
    I.X = -1;
    return emit(I);
  }
  void patchTo(size_t InstrIdx) {
    C.Code[InstrIdx].X = static_cast<int32_t>(C.Code.size());
    pin();
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  uint16_t compileExpr(const Expr *E);
  uint16_t compileLValue(const Expr *E);
  uint16_t compileUnary(const UnaryExpr *E);
  uint16_t compileBinary(const BinaryExpr *E);
  uint16_t compileAssign(const AssignExpr *E);
  uint16_t compileCall(const CallExpr *E);
  void compileDeclInit(const VarDecl *V);
  void fillInit(uint16_t BaseLoc, int64_t Off, const Type *Ty,
                const Expr *Init);
  uint16_t locAt(uint16_t BaseLoc, int64_t Off);

  /// Emits the address of \p V into a fresh register (walker varLoc).
  uint16_t emitLea(const VarDecl *V) {
    uint16_t Dst = allocReg();
    BcInstr I = ins(V->storage() == StorageKind::Global ? BcOp::LeaGlobal
                                                        : BcOp::LeaLocal);
    I.A = Dst;
    I.X = static_cast<int32_t>(V->cellOffset());
    emit(I);
    return Dst;
  }

  //===--------------------------------------------------------------------===//
  // Blocks
  //===--------------------------------------------------------------------===//

  void compileBlock(const BasicBlock *B, const FunctionDecl *F);

  struct BlockRef {
    size_t InstrIdx;
    bool InImm; ///< Patch Imm instead of X.
    uint32_t BlockId;
  };
  struct SwitchRef {
    BcSwitchTable *Table;
    std::vector<uint32_t> CaseBlocks; ///< Parallel to Table->Cases.
    uint32_t DefaultBlock;
  };

  int32_t blockTargetPlaceholder(const BasicBlock *B, size_t InstrIdx,
                                 bool InImm) {
    BlockRefs.push_back({InstrIdx, InImm, B->id()});
    return -1;
  }

  BcModule &M;
  const TranslationUnit &Unit;
  BcChunk &C;
  uint16_t RegTop = 0;
  ptrdiff_t LastTick = -1;
  std::vector<int32_t> BlockStart;
  std::vector<BlockRef> BlockRefs;
  std::vector<SwitchRef> SwitchRefs;
};

//===----------------------------------------------------------------------===//
// Expression lowering
//===----------------------------------------------------------------------===//

uint16_t ChunkCompiler::compileExpr(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::IntLit: {
    tick();
    uint16_t Dst = allocReg();
    BcInstr I = ins(BcOp::ConstInt);
    I.A = Dst;
    I.Imm = exprCast<IntLitExpr>(E)->value();
    emit(I);
    return Dst;
  }
  case ExprKind::DoubleLit: {
    tick();
    uint16_t Dst = allocReg();
    BcInstr I = ins(BcOp::ConstDouble);
    I.A = Dst;
    I.Dbl = exprCast<DoubleLitExpr>(E)->value();
    emit(I);
    return Dst;
  }
  case ExprKind::StringLit: {
    tick();
    uint16_t Dst = allocReg();
    BcInstr I = ins(BcOp::ConstStr);
    I.A = Dst;
    I.X = static_cast<int32_t>(exprCast<StringLitExpr>(E)->stringId());
    emit(I);
    return Dst;
  }
  case ExprKind::DeclRef: {
    tick();
    const auto *Ref = exprCast<DeclRefExpr>(E);
    if (const auto *F = declDynCast<FunctionDecl>(Ref->decl())) {
      uint16_t Dst = allocReg();
      BcInstr I = ins(BcOp::ConstFn);
      I.A = Dst;
      I.Ptr = F;
      emit(I);
      return Dst;
    }
    const auto *V = declDynCast<VarDecl>(Ref->decl());
    if (!V) {
      uint16_t Dst = allocReg();
      emitFail("unresolved reference '" + Ref->name() + "'");
      return Dst;
    }
    uint16_t Dst = allocReg();
    bool IsGlobal = V->storage() == StorageKind::Global;
    if (V->type()->isArray() || V->type()->isStruct()) {
      BcInstr I = ins(IsGlobal ? BcOp::LeaGlobal : BcOp::LeaLocal);
      I.A = Dst;
      I.X = static_cast<int32_t>(V->cellOffset());
      emit(I);
      return Dst;
    }
    if (V->cellOffset() < 0) {
      // Error decl: route through the generic load so the walker's
      // out-of-bounds diagnostic is reproduced.
      BcInstr L = ins(IsGlobal ? BcOp::LeaGlobal : BcOp::LeaLocal);
      L.A = Dst;
      L.X = static_cast<int32_t>(V->cellOffset());
      emit(L);
      uint16_t Loc = Dst;
      Dst = allocReg();
      emitABX(BcOp::LoadCellD, Dst, Loc, 0);
      return Dst;
    }
    BcInstr I = ins(IsGlobal ? BcOp::LoadGlobal : BcOp::LoadLocal);
    I.A = Dst;
    I.X = static_cast<int32_t>(V->cellOffset());
    emit(I);
    return Dst;
  }
  case ExprKind::Unary:
    return compileUnary(exprCast<UnaryExpr>(E));
  case ExprKind::Binary:
    return compileBinary(exprCast<BinaryExpr>(E));
  case ExprKind::Assign:
    return compileAssign(exprCast<AssignExpr>(E));
  case ExprKind::Conditional: {
    const auto *Cx = exprCast<ConditionalExpr>(E);
    tick();
    uint16_t Dst = allocReg();
    uint16_t Cond = compileExpr(Cx->cond());
    size_t Br = emitBranch(BcOp::BrFalse, Cond);
    RegTop = Dst + 1;
    uint16_t T = compileExpr(Cx->trueExpr());
    emitABX(BcOp::Move, Dst, T, 0);
    size_t J = emitBranch(BcOp::Jmp, 0);
    patchTo(Br);
    RegTop = Dst + 1;
    uint16_t F = compileExpr(Cx->falseExpr());
    emitABX(BcOp::Move, Dst, F, 0);
    patchTo(J);
    RegTop = Dst + 1;
    return Dst;
  }
  case ExprKind::Call:
    return compileCall(exprCast<CallExpr>(E));
  case ExprKind::Index:
  case ExprKind::Member: {
    tick();
    uint16_t Dst = allocReg();
    uint16_t Loc = compileLValue(E);
    if (E->type() && (E->type()->isArray() || E->type()->isStruct()))
      emitABX(BcOp::Move, Dst, Loc, 0);
    else
      emitABX(BcOp::LoadCellD, Dst, Loc, 0);
    RegTop = Dst + 1;
    return Dst;
  }
  case ExprKind::Cast: {
    const auto *Cx = exprCast<CastExpr>(E);
    tick();
    uint16_t Dst = allocReg();
    uint16_t Src = compileExpr(Cx->operand());
    if (Cx->targetType()->isVoid()) {
      BcInstr I = ins(BcOp::ConstInt);
      I.A = Dst;
      I.Imm = 0;
      emit(I);
    } else {
      BcInstr I = ins(BcOp::Conv);
      I.A = Dst;
      I.B = Src;
      I.Ptr = Cx->targetType();
      emit(I);
    }
    RegTop = Dst + 1;
    return Dst;
  }
  case ExprKind::InitList: {
    tick();
    uint16_t Dst = allocReg();
    emitFail("initializer list in expression context");
    return Dst;
  }
  }
  return allocReg();
}

uint16_t ChunkCompiler::compileLValue(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::DeclRef: {
    const auto *Ref = exprCast<DeclRefExpr>(E);
    const auto *V = declDynCast<VarDecl>(Ref->decl());
    if (!V) {
      uint16_t Dst = allocReg();
      emitFail("cannot use '" + Ref->name() + "' as a location");
      return Dst;
    }
    return emitLea(V);
  }
  case ExprKind::Unary: {
    const auto *U = exprCast<UnaryExpr>(E);
    if (U->op() != UnaryOp::Deref) {
      uint16_t Dst = allocReg();
      emitFail("expression is not assignable");
      return Dst;
    }
    uint16_t Dst = allocReg();
    uint16_t P = compileExpr(U->operand());
    BcInstr I = ins(BcOp::LvalFromPtr);
    I.A = Dst;
    I.B = P;
    I.Ptr = msg("dereference of non-pointer value");
    emit(I);
    RegTop = Dst + 1;
    return Dst;
  }
  case ExprKind::Index: {
    const auto *Ix = exprCast<IndexExpr>(E);
    uint16_t Dst = allocReg();
    uint16_t Base = compileExpr(Ix->base());
    uint16_t Idx = compileExpr(Ix->index());
    int64_t Stride = E->type() ? E->type()->sizeInCells() : 1;
    if (Stride <= 0)
      Stride = 1;
    BcInstr I = ins(BcOp::IndexLoc);
    I.A = Dst;
    I.B = Base;
    I.C = Idx;
    I.X = static_cast<int32_t>(Stride);
    emit(I);
    RegTop = Dst + 1;
    return Dst;
  }
  case ExprKind::Member: {
    const auto *Mx = exprCast<MemberExpr>(E);
    uint16_t Dst = allocReg();
    if (Mx->isArrow()) {
      uint16_t Base = compileExpr(Mx->base());
      emitABX(BcOp::ArrowLoc, Dst, Base,
              static_cast<int32_t>(Mx->fieldOffset()));
    } else {
      uint16_t Base = compileLValue(Mx->base());
      emitABX(BcOp::AddOffs, Dst, Base,
              static_cast<int32_t>(Mx->fieldOffset()));
    }
    RegTop = Dst + 1;
    return Dst;
  }
  default: {
    uint16_t Dst = allocReg();
    emitFail("expression is not assignable");
    return Dst;
  }
  }
}

uint16_t ChunkCompiler::compileUnary(const UnaryExpr *E) {
  switch (E->op()) {
  case UnaryOp::Deref: {
    tick();
    uint16_t Dst = allocReg();
    uint16_t Src = compileExpr(E->operand());
    BcInstr I = ins(BcOp::DerefRV);
    I.A = Dst;
    I.B = Src;
    I.Sub = (E->type() && (E->type()->isArray() || E->type()->isStruct() ||
                           E->type()->isFunction()))
                ? 1
                : 0;
    emit(I);
    RegTop = Dst + 1;
    return Dst;
  }
  case UnaryOp::AddrOf: {
    tick();
    if (const auto *Ref = exprDynCast<DeclRefExpr>(E->operand()))
      if (const auto *F = declDynCast<FunctionDecl>(Ref->decl())) {
        uint16_t Dst = allocReg();
        BcInstr I = ins(BcOp::ConstFn);
        I.A = Dst;
        I.Ptr = F;
        emit(I);
        return Dst;
      }
    // A location register already holds the Ptr value &lvalue produces.
    return compileLValue(E->operand());
  }
  case UnaryOp::Neg:
  case UnaryOp::LogicalNot:
  case UnaryOp::BitNot: {
    tick();
    uint16_t Dst = allocReg();
    uint16_t Src = compileExpr(E->operand());
    BcOp K = E->op() == UnaryOp::Neg
                 ? BcOp::Neg
                 : (E->op() == UnaryOp::LogicalNot ? BcOp::LogNot
                                                   : BcOp::BitNot);
    emitABX(K, Dst, Src, 0);
    RegTop = Dst + 1;
    return Dst;
  }
  case UnaryOp::PreInc:
  case UnaryOp::PreDec:
  case UnaryOp::PostInc:
  case UnaryOp::PostDec: {
    tick();
    bool IsInc =
        E->op() == UnaryOp::PreInc || E->op() == UnaryOp::PostInc;
    bool IsPre = E->op() == UnaryOp::PreInc || E->op() == UnaryOp::PreDec;
    uint16_t Dst = allocReg();
    uint16_t Loc = compileLValue(E->operand());
    BcInstr I = ins(BcOp::IncDec);
    I.A = Dst;
    I.B = Loc;
    I.Sub = (IsInc ? IncDecIsInc : 0) | (IsPre ? IncDecIsPre : 0);
    I.X = static_cast<int32_t>(strideOf(E->operand()->type()));
    emit(I);
    RegTop = Dst + 1;
    return Dst;
  }
  }
  return allocReg();
}

uint16_t ChunkCompiler::compileBinary(const BinaryExpr *E) {
  if (E->op() == BinaryOp::LogicalAnd) {
    tick();
    uint16_t Dst = allocReg();
    uint16_t L = compileExpr(E->lhs());
    BcInstr Zero = ins(BcOp::ConstInt);
    Zero.A = Dst;
    Zero.Imm = 0;
    emit(Zero);
    size_t Br = emitBranch(BcOp::BrFalse, L);
    RegTop = Dst + 1;
    uint16_t R = compileExpr(E->rhs());
    emitABX(BcOp::Truthy, Dst, R, 0);
    patchTo(Br);
    RegTop = Dst + 1;
    return Dst;
  }
  if (E->op() == BinaryOp::LogicalOr) {
    tick();
    uint16_t Dst = allocReg();
    uint16_t L = compileExpr(E->lhs());
    BcInstr One = ins(BcOp::ConstInt);
    One.A = Dst;
    One.Imm = 1;
    emit(One);
    size_t Br = emitBranch(BcOp::BrTrue, L);
    RegTop = Dst + 1;
    uint16_t R = compileExpr(E->rhs());
    emitABX(BcOp::Truthy, Dst, R, 0);
    patchTo(Br);
    RegTop = Dst + 1;
    return Dst;
  }
  tick();
  uint16_t Dst = allocReg();
  uint16_t L = compileExpr(E->lhs());
  uint16_t R = compileExpr(E->rhs());
  BcInstr I = ins(BcOp::BinOp);
  I.A = Dst;
  I.B = L;
  I.C = R;
  I.Sub = static_cast<uint8_t>(E->op());
  I.X = static_cast<int32_t>(strideOf(E->type()));
  I.Imm = strideOf(E->lhs()->type());
  emit(I);
  RegTop = Dst + 1;
  return Dst;
}

uint16_t ChunkCompiler::compileAssign(const AssignExpr *E) {
  const Type *LhsTy = E->lhs()->type();
  tick();
  uint16_t Dst = allocReg();

  if (LhsTy && LhsTy->isStruct()) {
    uint16_t Loc = compileLValue(E->lhs());
    uint16_t Src = compileExpr(E->rhs());
    BcInstr I = ins(BcOp::StructAssign);
    I.A = Dst;
    I.B = Loc;
    I.C = Src;
    I.X = static_cast<int32_t>(LhsTy->sizeInCells());
    emit(I);
    RegTop = Dst + 1;
    return Dst;
  }

  uint16_t Loc = compileLValue(E->lhs());
  uint16_t Val;
  if (E->compoundOp()) {
    uint16_t Old = allocReg();
    emitABX(BcOp::LoadCellD, Old, Loc, 0);
    uint16_t R = compileExpr(E->rhs());
    Val = allocReg();
    BcInstr B = ins(BcOp::BinOp);
    B.A = Val;
    B.B = Old;
    B.C = R;
    B.Sub = static_cast<uint8_t>(*E->compoundOp());
    B.X = static_cast<int32_t>(strideOf(E->type()));
    B.Imm = strideOf(LhsTy);
    emit(B);
  } else {
    Val = compileExpr(E->rhs());
  }
  BcInstr S = ins(BcOp::ConvStore);
  S.A = Dst;
  S.B = Loc;
  S.C = Val;
  S.Ptr = LhsTy;
  emit(S);
  RegTop = Dst + 1;
  return Dst;
}

uint16_t ChunkCompiler::compileCall(const CallExpr *E) {
  int32_t Site = (E->callSiteId() != UINT32_MAX &&
                  E->callSiteId() < Unit.NumCallSites)
                     ? static_cast<int32_t>(E->callSiteId())
                     : -1;

  if (const FunctionDecl *Direct = E->directCallee()) {
    // The call node's own tick: TickCall replicates the walker's counter
    // leaks when the step limit hits exactly here, so it must stay a
    // distinct instruction (never merged into a neighboring Tick).
    BcInstr T = ins(BcOp::TickCall);
    T.X = Site;
    T.Sub = E->args().empty() ? 0 : 1;
    T.Ptr = Direct;
    emit(T);

    uint16_t Dst = allocReg();
    uint16_t ArgBase = RegTop;
    const auto &ParamTypes = Direct->type()->params();
    for (size_t I = 0; I < E->args().size(); ++I) {
      uint16_t R = compileExpr(E->args()[I]);
      (void)R;
      assert(R == ArgBase + I && "argument registers not contiguous");
      if (I < ParamTypes.size() && ParamTypes[I]->isStruct()) {
        BcInstr Ck = ins(BcOp::CheckStructArg);
        Ck.A = static_cast<uint16_t>(ArgBase + I);
        emit(Ck);
      }
    }
    BcInstr I =
        ins(Direct->isBuiltin() ? BcOp::CallBuiltin : BcOp::CallDirect);
    I.A = Dst;
    I.B = ArgBase;
    I.C = static_cast<uint16_t>(E->args().size());
    I.Ptr = Direct;
    emit(I);
    RegTop = Dst + 1;
    return Dst;
  }

  // Indirect call: the walker bails before any counter bump if the tick
  // fails (the callee evaluation is halted-checked), so a plain Tick is
  // correct here.
  tick();
  uint16_t Dst = allocReg();
  uint16_t Fn = compileExpr(E->callee());
  BcInstr Ck = ins(BcOp::CheckFn);
  Ck.A = Fn;
  emit(Ck);
  if (Site >= 0) {
    BcInstr Bp = ins(BcOp::SiteBump);
    Bp.X = Site;
    emit(Bp);
  }
  // Struct-argument checks use the callee expression's static function
  // type; at run time the walker consults the resolved callee, which
  // matches for well-typed programs (the VM re-checks at bind time).
  const FunctionType *FTy = nullptr;
  if (const auto *PT = typeDynCast<PointerType>(E->callee()->type()))
    FTy = typeDynCast<FunctionType>(PT->pointee());
  uint16_t ArgBase = RegTop;
  for (size_t I = 0; I < E->args().size(); ++I) {
    uint16_t R = compileExpr(E->args()[I]);
    (void)R;
    assert(R == ArgBase + I && "argument registers not contiguous");
    if (FTy && I < FTy->params().size() && FTy->params()[I]->isStruct()) {
      BcInstr C2 = ins(BcOp::CheckStructArg);
      C2.A = static_cast<uint16_t>(ArgBase + I);
      emit(C2);
    }
  }
  BcInstr I = ins(BcOp::CallIndirect);
  I.A = Dst;
  I.B = ArgBase;
  I.C = static_cast<uint16_t>(E->args().size());
  I.X = Fn;
  emit(I);
  RegTop = Dst + 1;
  return Dst;
}

//===----------------------------------------------------------------------===//
// Variable initialization
//===----------------------------------------------------------------------===//

uint16_t ChunkCompiler::locAt(uint16_t BaseLoc, int64_t Off) {
  if (Off == 0)
    return BaseLoc;
  uint16_t Dst = allocReg();
  emitABX(BcOp::AddOffs, Dst, BaseLoc, static_cast<int32_t>(Off));
  return Dst;
}

void ChunkCompiler::fillInit(uint16_t BaseLoc, int64_t Off, const Type *Ty,
                             const Expr *Init) {
  if (const auto *List = exprDynCast<InitListExpr>(Init)) {
    uint16_t Save = RegTop;
    uint16_t Loc = locAt(BaseLoc, Off);
    BcInstr Z = ins(BcOp::ZeroLoc);
    Z.A = Loc;
    Z.Imm = Ty->sizeInCells();
    emit(Z);
    RegTop = Save;
    if (const auto *AT = typeDynCast<ArrayType>(Ty)) {
      int64_t Stride = AT->element()->sizeInCells();
      for (size_t I = 0; I < List->elements().size(); ++I) {
        uint16_t S2 = RegTop;
        fillInit(BaseLoc, Off + static_cast<int64_t>(I) * Stride,
                 AT->element(), List->elements()[I]);
        RegTop = S2;
      }
      return;
    }
    if (const auto *ST = typeDynCast<StructType>(Ty)) {
      for (size_t I = 0;
           I < List->elements().size() && I < ST->fields().size(); ++I) {
        uint16_t S2 = RegTop;
        fillInit(BaseLoc, Off + ST->fields()[I].OffsetCells,
                 ST->fields()[I].Ty, List->elements()[I]);
        RegTop = S2;
      }
      return;
    }
    emitFail("braced initializer for scalar");
    return;
  }

  if (const auto *Str = exprDynCast<StringLitExpr>(Init)) {
    if (const auto *AT = typeDynCast<ArrayType>(Ty);
        AT && AT->element()->isChar()) {
      uint16_t Save = RegTop;
      uint16_t Loc = locAt(BaseLoc, Off);
      BcInstr I = ins(BcOp::StrCopyLoc);
      I.A = Loc;
      I.X = static_cast<int32_t>(Ty->sizeInCells());
      I.Ptr = Str;
      emit(I);
      RegTop = Save;
      return;
    }
  }

  uint16_t Save = RegTop;
  uint16_t Val = compileExpr(Init);
  uint16_t Loc = locAt(BaseLoc, Off);
  uint16_t Dead = allocReg();
  BcInstr S = ins(BcOp::ConvStore);
  S.A = Dead;
  S.B = Loc;
  S.C = Val;
  S.Ptr = Ty;
  emit(S);
  RegTop = Save;
}

void ChunkCompiler::compileDeclInit(const VarDecl *V) {
  uint16_t Base = emitLea(V);
  if (!V->init()) {
    BcInstr Z = ins(BcOp::ZeroLoc);
    Z.A = Base;
    Z.Imm = V->type()->sizeInCells();
    emit(Z);
    return;
  }
  fillInit(Base, 0, V->type(), V->init());
}

//===----------------------------------------------------------------------===//
// Blocks and chunks
//===----------------------------------------------------------------------===//

void ChunkCompiler::compileBlock(const BasicBlock *B,
                                 const FunctionDecl *F) {
  BlockStart[B->id()] = static_cast<int32_t>(C.Code.size());
  pin();

  BcInstr Enter = ins(BcOp::BlockEnter);
  Enter.X = static_cast<int32_t>(B->id());
  emit(Enter);

  for (const CfgAction &A : B->actions()) {
    RegTop = 0;
    if (A.ActionKind == CfgAction::Kind::Eval)
      compileExpr(A.E);
    else if (A.ActionKind == CfgAction::Kind::DeclInit)
      compileDeclInit(A.Var);
    else {
      // ZeroFrameRange: like a no-init DeclInit, but addressed by raw
      // frame offset (tickless in both engines).
      uint16_t Dst = allocReg();
      BcInstr Lea = ins(BcOp::LeaLocal);
      Lea.A = Dst;
      Lea.X = static_cast<int32_t>(A.FrameOffset);
      emit(Lea);
      BcInstr Z = ins(BcOp::ZeroLoc);
      Z.A = Dst;
      Z.Imm = A.CellCount;
      emit(Z);
    }
  }
  RegTop = 0;

  switch (B->terminator()) {
  case TerminatorKind::Goto: {
    BcInstr I = ins(BcOp::ArcJmp);
    I.B = static_cast<uint16_t>(B->id());
    I.C = 0;
    size_t Idx = emit(I);
    blockTargetPlaceholder(B->successors()[0], Idx, false);
    break;
  }
  case TerminatorKind::CondBranch: {
    uint16_t Cond = compileExpr(B->condOrValue());
    BcInstr I = ins(BcOp::ArcCondBr);
    I.A = Cond;
    I.B = static_cast<uint16_t>(B->id());
    size_t Idx = emit(I);
    blockTargetPlaceholder(B->successors()[0], Idx, false);
    blockTargetPlaceholder(B->successors()[1], Idx, true);
    break;
  }
  case TerminatorKind::Switch: {
    uint16_t Cond = compileExpr(B->condOrValue());
    M.SwitchTables.emplace_back();
    BcSwitchTable &Table = M.SwitchTables.back();
    SwitchRef SR;
    SR.Table = &Table;
    const auto &Cases = B->switchCases();
    for (size_t I = 0; I < Cases.size(); ++I) {
      BcSwitchCase SC;
      SC.Value = Cases[I].Value;
      SC.Slot = static_cast<uint16_t>(I);
      Table.Cases.push_back(SC);
      SR.CaseBlocks.push_back(Cases[I].Target->id());
    }
    Table.DefaultSlot = static_cast<uint16_t>(Cases.size());
    SR.DefaultBlock = B->successors().back()->id();
    SwitchRefs.push_back(std::move(SR));
    BcInstr I = ins(BcOp::ArcSwitch);
    I.A = Cond;
    I.B = static_cast<uint16_t>(B->id());
    I.Ptr = &Table;
    emit(I);
    break;
  }
  case TerminatorKind::Return: {
    if (!B->condOrValue()) {
      emit(ins(BcOp::RetVoid));
      break;
    }
    uint16_t Val = compileExpr(B->condOrValue());
    BcInstr I = ins(BcOp::RetVal);
    I.A = Val;
    I.Ptr = F->type()->returnType();
    emit(I);
    break;
  }
  case TerminatorKind::Unreachable:
    emitFail("control fell into an unreachable block in '" + F->name() +
             "'");
    break;
  }
}

void ChunkCompiler::compileFunction(const Cfg &G) {
  const FunctionDecl *F = G.function();
  C.Function = F;
  BlockStart.assign(G.size(), -1);

  // The entry block executes first; it is first in the block list after
  // simplify(), so emitting in list order needs no entry trampoline.
  assert(G.entry() == G.blocks().front().get() && "entry not first");
  for (const auto &B : G.blocks())
    compileBlock(B.get(), F);
  emit(ins(BcOp::Halt));

  for (const BlockRef &R : BlockRefs) {
    int32_t Target = BlockStart[R.BlockId];
    assert(Target >= 0 && "branch to unemitted block");
    if (R.InImm)
      C.Code[R.InstrIdx].Imm = Target;
    else
      C.Code[R.InstrIdx].X = Target;
  }
  for (const SwitchRef &SR : SwitchRefs) {
    for (size_t I = 0; I < SR.CaseBlocks.size(); ++I)
      SR.Table->Cases[I].Target = BlockStart[SR.CaseBlocks[I]];
    SR.Table->DefaultTarget = BlockStart[SR.DefaultBlock];
  }
}

void ChunkCompiler::compileGlobalInit() {
  // setupGlobals zeroes the segment and copies string literals natively;
  // this chunk runs only the declaration-order initializers (which tick,
  // exactly like the walker's fillInitializer).
  for (const VarDecl *G : Unit.Globals) {
    if (G->cellOffset() < 0)
      continue;
    if (!G->init())
      continue;
    RegTop = 0;
    uint16_t Base = emitLea(G);
    fillInit(Base, 0, G->type(), G->init());
  }
  emit(ins(BcOp::RetVoid));
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

const BcChunk *BcModule::chunkFor(const FunctionDecl *F) const {
  uint32_t Id = F->functionId();
  if (Id >= Chunks.size())
    return nullptr;
  return Chunks[Id].get();
}

BcModule sest::bc::compileBytecode(const TranslationUnit &Unit,
                                   const CfgModule &Cfgs) {
  obs::ScopedPhase Phase("interp.bc_compile");
  auto Start = std::chrono::steady_clock::now();

  BcModule M;
  M.Chunks.resize(Unit.Functions.size());
  for (const auto &[F, G] : Cfgs.all()) {
    auto Chunk = std::make_unique<BcChunk>();
    ChunkCompiler CC(M, Unit, *Chunk);
    CC.compileFunction(*G);
    M.NumInstrs += Chunk->Code.size();
    M.Chunks[F->functionId()] = std::move(Chunk);
  }
  {
    ChunkCompiler CC(M, Unit, M.GlobalInit);
    CC.compileGlobalInit();
    M.NumInstrs += M.GlobalInit.Code.size();
  }

  M.CompileMs = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  obs::counterAdd("interp.bytecode.compiles");
  obs::counterAdd("interp.bytecode.compile_ms", M.CompileMs);
  obs::counterAdd("interp.bytecode.compiled_instrs",
                  static_cast<double>(M.NumInstrs));
  return M;
}
