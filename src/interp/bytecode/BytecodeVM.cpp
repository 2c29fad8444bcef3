//===- interp/bytecode/BytecodeVM.cpp - Bytecode executor ------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
//
// The runtime (memory model, conversions, operators, builtins, failure
// handling, step accounting, call prologue) is RunState, shared with the
// tree-walker in interp/Interp.cpp. Only the execution core is the VM's
// own: instead of recursing over the AST, dispatch() runs a flat
// instruction stream with all static decisions (offsets, strides, jump
// targets, diagnostics) resolved at lowering time.
// tests/test_bytecode_diff.cpp holds that lowering to the walker.
//
//===----------------------------------------------------------------------===//

#include "interp/bytecode/BytecodeVM.h"

#include "interp/RunState.h"

using namespace sest;
using namespace sest::bc;

// Computed-goto dispatch needs the GNU labels-as-values extension.
#if defined(__GNUC__) || defined(__clang__)
#define SEST_BC_THREADED 1
#else
#define SEST_BC_THREADED 0
#endif

namespace {

class BytecodeVM : RunState {
public:
  BytecodeVM(const TranslationUnit &Unit, const CfgModule &Cfgs,
             const BcModule &M, const ProgramInput &Input,
             const InterpOptions &Options)
      : RunState(Unit, Cfgs, Input, Options), M(M) {}

  RunResult run();

private:
  Value callFunction(const FunctionDecl *F, size_t ArgBase, size_t NArgs,
                     size_t NewRegBase);
  Value dispatch(const BcChunk &Ch);

  const BcModule &M;

  /// The register file: one grow-only vector, windowed per frame.
  std::vector<Value> Regs;
  size_t RegBase = 0;
  /// Profile row of the function currently executing (null while the
  /// global-initializer chunk runs, which has no profiled blocks).
  FunctionProfile *CurFP = nullptr;
  /// Per-function arc classification under the run's layout, shaped like
  /// ArcCounts: FallTbl[fid][block][slot] is 1 when that arc lands on
  /// the layout-adjacent block. Precomputed once per run so the arc
  /// handlers pay one indexed load, not a position comparison.
  std::vector<std::vector<std::vector<uint8_t>>> FallTbl;
  /// FallTbl row of the function currently executing (null during the
  /// global-initializer chunk, which has no arc instructions).
  const std::vector<std::vector<uint8_t>> *CurFall = nullptr;
  /// Instructions dispatched (telemetry: interp.bytecode.instrs).
  uint64_t InstrCount = 0;
};

RunResult BytecodeVM::run() {
  obs::ScopedPhase Phase("interp.run", Input.Name);
  beginRun();

  std::vector<std::vector<uint32_t>> Pos =
      layoutPositions(Unit, Cfgs, Options.Layout);
  FallTbl.resize(Unit.Functions.size());
  for (const auto &[F, G] : Cfgs.all()) {
    auto &T = FallTbl[F->functionId()];
    const std::vector<uint32_t> &P = Pos[F->functionId()];
    T.resize(G->size());
    for (const auto &B : G->blocks()) {
      std::vector<uint8_t> &Row = T[B->id()];
      Row.resize(B->successors().size());
      for (size_t S = 0; S < Row.size(); ++S)
        Row[S] =
            P[B->successors()[S]->id()] == P[B->id()] + 1 ? 1 : 0;
    }
  }

  // The declaration-order global initializers tick, so they run as the
  // module's GlobalInit chunk through the dispatch loop.
  if (Regs.size() < M.GlobalInit.NumRegs)
    Regs.resize(M.GlobalInit.NumRegs);
  RegBase = 0;
  dispatch(M.GlobalInit);

  RunResult R;
  const FunctionDecl *Main = findMain(R);
  if (!Main)
    return R;
  Value Ret;
  if (!halted())
    Ret = callFunction(Main, 0, 0, 0);
  R = finishRun(Ret);
  obs::counterAdd("interp.bytecode.instrs", static_cast<double>(InstrCount));
  return R;
}

//===----------------------------------------------------------------------===//
// Function calls
//===----------------------------------------------------------------------===//

Value BytecodeVM::callFunction(const FunctionDecl *F, size_t ArgBase,
                               size_t NArgs, size_t NewRegBase) {
  const BcChunk *Ch = M.chunkFor(F);
  SavedFrame Saved;
  if (!enterCall(F, Ch != nullptr, Saved))
    return Value::makeInt(0);
  FunctionProfile *SavedFP = CurFP;
  const std::vector<std::vector<uint8_t>> *SavedFall = CurFall;
  size_t SavedRegBase = RegBase;
  CurFP = &Prof.Functions[F->functionId()];
  CurFall = &FallTbl[F->functionId()];

  // Bind parameters; struct params copy cells from the argument's
  // aggregate (the call site verified it is a Ptr).
  const auto &ParamTypes = F->type()->params();
  for (size_t I = 0; I < F->params().size(); ++I) {
    const VarDecl *P = F->params()[I];
    Loc PL = varLoc(P);
    const Type *PTy = I < ParamTypes.size() ? ParamTypes[I] : nullptr;
    Value Arg = I < NArgs ? Regs[ArgBase + I] : Value::makeInt(0);
    if (PTy && PTy->isStruct()) {
      if (Arg.isPtr())
        copyCells(PL, Arg.ptr(), PTy->sizeInCells());
    } else {
      storeCell(PL, convert(Arg, P->type()));
    }
  }

  RegBase = NewRegBase;
  if (Regs.size() < RegBase + Ch->NumRegs)
    Regs.resize(RegBase + Ch->NumRegs);

  Value Ret = Value::makeInt(0);
  if (!halted())
    Ret = dispatch(*Ch);

  CurFP = SavedFP;
  CurFall = SavedFall;
  RegBase = SavedRegBase;
  leaveCall(Saved);
  return Ret;
}

//===----------------------------------------------------------------------===//
// The dispatch loop
//===----------------------------------------------------------------------===//

Value BytecodeVM::dispatch(const BcChunk &Ch) {
  const BcInstr *Code = Ch.Code.data();
  const BcInstr *IP = Code;
  Value *R = Regs.data() + RegBase;
  uint64_t NDisp = 0;
  Value Ret = Value::makeInt(0);

#if SEST_BC_THREADED
  static const void *const JumpTable[NumBcOps] = {
#define SEST_BC_LABEL_ADDR(Name) &&Lbl_##Name,
      SEST_BC_OPS(SEST_BC_LABEL_ADDR)
#undef SEST_BC_LABEL_ADDR
  };
#define SEST_CASE(Name) Lbl_##Name
#define SEST_NEXT()                                                          \
  do {                                                                       \
    ++NDisp;                                                                 \
    goto *JumpTable[static_cast<uint8_t>(IP->K)];                            \
  } while (0)
  SEST_NEXT();
#else
#define SEST_CASE(Name) case BcOp::Name
#define SEST_NEXT() break
  for (;;) {
    ++NDisp;
    switch (IP->K) {
#endif

  SEST_CASE(ConstInt) : {
    const BcInstr &I = *IP++;
    R[I.A] = Value::makeInt(I.Imm);
  }
  SEST_NEXT();

  SEST_CASE(ConstDouble) : {
    const BcInstr &I = *IP++;
    R[I.A] = Value::makeDouble(I.Dbl);
  }
  SEST_NEXT();

  SEST_CASE(ConstStr) : {
    const BcInstr &I = *IP++;
    R[I.A] = Value::makePtr(stringLoc(static_cast<uint32_t>(I.X)));
  }
  SEST_NEXT();

  SEST_CASE(ConstFn) : {
    const BcInstr &I = *IP++;
    R[I.A] = Value::makeFn(static_cast<const FunctionDecl *>(I.Ptr));
  }
  SEST_NEXT();

  SEST_CASE(Move) : {
    const BcInstr &I = *IP++;
    R[I.A] = R[I.B];
  }
  SEST_NEXT();

  SEST_CASE(Truthy) : {
    const BcInstr &I = *IP++;
    R[I.A] = Value::makeInt(R[I.B].isTruthy() ? 1 : 0);
  }
  SEST_NEXT();

  SEST_CASE(LoadGlobal) : {
    const BcInstr &I = *IP++;
    if (static_cast<uint64_t>(I.X) >= Globals.size()) {
      fail("global read out of bounds");
      goto VmHalt;
    }
    R[I.A] = Globals[I.X];
  }
  SEST_NEXT();

  SEST_CASE(LoadLocal) : {
    const BcInstr &I = *IP++;
    int64_t Off = FrameBase + I.X;
    if (Off < 0 || Off >= static_cast<int64_t>(Stack.size())) {
      fail("stack read out of bounds");
      goto VmHalt;
    }
    R[I.A] = Stack[Off];
  }
  SEST_NEXT();

  SEST_CASE(LeaGlobal) : {
    const BcInstr &I = *IP++;
    R[I.A] =
        Value::makePtr({static_cast<uint32_t>(MemSpace::Global), I.X});
  }
  SEST_NEXT();

  SEST_CASE(LeaLocal) : {
    const BcInstr &I = *IP++;
    R[I.A] = Value::makePtr(
        {static_cast<uint32_t>(MemSpace::Stack), FrameBase + I.X});
  }
  SEST_NEXT();

  SEST_CASE(LvalFromPtr) : {
    const BcInstr &I = *IP++;
    const Value &V = R[I.B];
    if (!V.isPtr()) {
      fail(*static_cast<const std::string *>(I.Ptr));
      goto VmHalt;
    }
    R[I.A] = V;
  }
  SEST_NEXT();

  SEST_CASE(ArrowLoc) : {
    const BcInstr &I = *IP++;
    const Value &V = R[I.B];
    if (!V.isPtr()) {
      fail("'->' applied to non-pointer value");
      goto VmHalt;
    }
    R[I.A] = Value::makePtr(offsetBy(V.ptr(), I.X));
  }
  SEST_NEXT();

  SEST_CASE(IndexLoc) : {
    const BcInstr &I = *IP++;
    const Value &Base = R[I.B];
    if (!Base.isPtr()) {
      fail("indexing a non-pointer value");
      goto VmHalt;
    }
    R[I.A] = Value::makePtr(offsetBy(Base.ptr(), wrapMul(R[I.C].asInt(), I.X)));
  }
  SEST_NEXT();

  SEST_CASE(AddOffs) : {
    const BcInstr &I = *IP++;
    R[I.A] = Value::makePtr(offsetBy(R[I.B].ptr(), I.X));
  }
  SEST_NEXT();

  SEST_CASE(LoadCellD) : {
    const BcInstr &I = *IP++;
    Value V = loadCell(R[I.B].ptr());
    if (halted())
      goto VmHalt;
    R[I.A] = V;
  }
  SEST_NEXT();

  SEST_CASE(ConvStore) : {
    const BcInstr &I = *IP++;
    Value V = convert(R[I.C], static_cast<const Type *>(I.Ptr));
    storeCell(R[I.B].ptr(), V);
    if (halted())
      goto VmHalt;
    R[I.A] = V;
  }
  SEST_NEXT();

  SEST_CASE(StructAssign) : {
    const BcInstr &I = *IP++;
    const Value &Src = R[I.C];
    if (!Src.isPtr()) {
      fail("struct assignment from non-aggregate value");
      goto VmHalt;
    }
    Loc Dst = R[I.B].ptr();
    copyCells(Dst, Src.ptr(), I.X);
    if (halted())
      goto VmHalt;
    R[I.A] = Value::makePtr(Dst);
  }
  SEST_NEXT();

  SEST_CASE(ZeroLoc) : {
    const BcInstr &I = *IP++;
    zeroCells(R[I.A].ptr(), I.Imm);
    if (halted())
      goto VmHalt;
  }
  SEST_NEXT();

  SEST_CASE(StrCopyLoc) : {
    const BcInstr &I = *IP++;
    Loc Base = R[I.A].ptr();
    zeroCells(Base, I.X);
    if (halted())
      goto VmHalt;
    const std::string &S =
        static_cast<const StringLitExpr *>(I.Ptr)->value();
    for (size_t J = 0; J < S.size(); ++J)
      storeCell(offsetBy(Base, static_cast<int64_t>(J)),
                Value::makeInt(static_cast<unsigned char>(S[J])));
    if (halted())
      goto VmHalt;
  }
  SEST_NEXT();

  SEST_CASE(Neg) : {
    const BcInstr &I = *IP++;
    const Value &V = R[I.B];
    R[I.A] = V.isDouble() ? Value::makeDouble(-V.DoubleVal)
                          : Value::makeInt(wrapSub(0, V.asInt()));
  }
  SEST_NEXT();

  SEST_CASE(LogNot) : {
    const BcInstr &I = *IP++;
    R[I.A] = Value::makeInt(R[I.B].isTruthy() ? 0 : 1);
  }
  SEST_NEXT();

  SEST_CASE(BitNot) : {
    const BcInstr &I = *IP++;
    R[I.A] = Value::makeInt(~R[I.B].asInt());
  }
  SEST_NEXT();

  SEST_CASE(DerefRV) : {
    const BcInstr &I = *IP++;
    const Value &P = R[I.B];
    if (P.isFnPtr()) {
      R[I.A] = P;
    } else if (!P.isPtr()) {
      fail("dereference of non-pointer value");
      goto VmHalt;
    } else if (I.Sub) {
      R[I.A] = P;
    } else {
      Value V = loadCell(P.ptr());
      if (halted())
        goto VmHalt;
      R[I.A] = V;
    }
  }
  SEST_NEXT();

  SEST_CASE(IncDec) : {
    const BcInstr &I = *IP++;
    Loc L = R[I.B].ptr();
    Value Old = loadCell(L);
    if (halted())
      goto VmHalt;
    bool IsInc = I.Sub & IncDecIsInc;
    Value New;
    if (Old.isPtr()) {
      New = Value::makePtr(offsetBy(Old.ptr(), IsInc ? I.X : -I.X));
    } else if (Old.isDouble()) {
      New = Value::makeDouble(Old.DoubleVal + (IsInc ? 1.0 : -1.0));
    } else {
      New = Value::makeInt(wrapAdd(Old.asInt(), IsInc ? 1 : -1));
    }
    storeCell(L, New);
    if (halted())
      goto VmHalt;
    R[I.A] = (I.Sub & IncDecIsPre) ? New : Old;
  }
  SEST_NEXT();

  SEST_CASE(BinOp) : {
    const BcInstr &I = *IP++;
    Value V = applyBinary(static_cast<BinaryOp>(I.Sub), R[I.B], R[I.C],
                          I.X, I.Imm);
    if (halted())
      goto VmHalt;
    R[I.A] = V;
  }
  SEST_NEXT();

  SEST_CASE(Conv) : {
    const BcInstr &I = *IP++;
    R[I.A] = convert(R[I.B], static_cast<const Type *>(I.Ptr));
  }
  SEST_NEXT();

  SEST_CASE(Tick) : {
    const BcInstr &I = *IP++;
    for (int32_t K = 0; K < I.X; ++K) {
      tick();
      if (halted())
        goto VmHalt;
    }
  }
  SEST_NEXT();

  SEST_CASE(TickCall) : {
    const BcInstr &I = *IP++;
    tick();
    // The walker bumps the call-site counter in evalCall with no halted
    // check, so the bump survives a step-limit abort at the call node.
    if (I.X >= 0)
      Prof.CallSiteCounts[I.X] += 1;
    if (halted()) {
      // Like the walker, a zero-argument call still enters the callee,
      // whose prologue runs before the body's halted check: the entry
      // count and call-depth high-water of a defined callee leak through.
      const auto *F = static_cast<const FunctionDecl *>(I.Ptr);
      if (!I.Sub && !F->isBuiltin())
        callFunction(F, 0, 0, RegBase + Ch.NumRegs);
      goto VmHalt;
    }
  }
  SEST_NEXT();

  SEST_CASE(BlockEnter) : {
    const BcInstr &I = *IP++;
    tick();
    // Walker order: the block count bumps even when this tick tripped
    // the step limit.
    CurFP->BlockCounts[I.X] += 1;
    if (halted())
      goto VmHalt;
  }
  SEST_NEXT();

  SEST_CASE(Jmp) : {
    const BcInstr &I = *IP++;
    IP = Code + I.X;
  }
  SEST_NEXT();

  SEST_CASE(BrFalse) : {
    const BcInstr &I = *IP++;
    if (!R[I.A].isTruthy())
      IP = Code + I.X;
  }
  SEST_NEXT();

  SEST_CASE(BrTrue) : {
    const BcInstr &I = *IP++;
    if (R[I.A].isTruthy())
      IP = Code + I.X;
  }
  SEST_NEXT();

  SEST_CASE(ArcJmp) : {
    const BcInstr &I = *IP++;
    CurFP->ArcCounts[I.B][I.C] += 1;
    if ((*CurFall)[I.B][I.C])
      ++LayoutCost.FallThrough;
    else
      ++LayoutCost.Taken;
    IP = Code + I.X;
  }
  SEST_NEXT();

  SEST_CASE(ArcCondBr) : {
    const BcInstr &I = *IP++;
    bool Taken = R[I.A].isTruthy();
    unsigned Slot = Taken ? 0 : 1;
    CurFP->ArcCounts[I.B][Slot] += 1;
    if ((*CurFall)[I.B][Slot])
      ++LayoutCost.FallThrough;
    else
      ++LayoutCost.Taken;
    IP = Code + (Taken ? I.X : static_cast<int32_t>(I.Imm));
  }
  SEST_NEXT();

  SEST_CASE(ArcSwitch) : {
    const BcInstr &I = *IP++;
    const auto *Table = static_cast<const BcSwitchTable *>(I.Ptr);
    int64_t V = R[I.A].asInt();
    uint16_t Slot = Table->DefaultSlot;
    int32_t Target = Table->DefaultTarget;
    for (const BcSwitchCase &C : Table->Cases)
      if (C.Value == V) {
        Slot = C.Slot;
        Target = C.Target;
        break;
      }
    CurFP->ArcCounts[I.B][Slot] += 1;
    if ((*CurFall)[I.B][Slot])
      ++LayoutCost.FallThrough;
    else
      ++LayoutCost.Taken;
    IP = Code + Target;
  }
  SEST_NEXT();

  SEST_CASE(RetVal) : {
    const BcInstr &I = *IP++;
    Ret = convert(R[I.A], static_cast<const Type *>(I.Ptr));
    ++LayoutCost.Returns;
    goto VmRet;
  }

  SEST_CASE(RetVoid) : {
    ++IP;
    Ret = Value::makeInt(0);
    // The global-initializer chunk (CurFP null) ends in RetVoid too,
    // but is not a mini-C return; the walker never counts it.
    if (CurFP)
      ++LayoutCost.Returns;
    goto VmRet;
  }

  SEST_CASE(FailMsg) : {
    const BcInstr &I = *IP++;
    fail(*static_cast<const std::string *>(I.Ptr));
    goto VmHalt;
  }

  SEST_CASE(CheckFn) : {
    const BcInstr &I = *IP++;
    const Value &V = R[I.A];
    if (!V.isFnPtr() || V.FnVal == nullptr) {
      fail("indirect call through a non-function value");
      goto VmHalt;
    }
  }
  SEST_NEXT();

  SEST_CASE(SiteBump) : {
    const BcInstr &I = *IP++;
    Prof.CallSiteCounts[I.X] += 1;
  }
  SEST_NEXT();

  SEST_CASE(CheckStructArg) : {
    const BcInstr &I = *IP++;
    if (!R[I.A].isPtr()) {
      fail("struct argument is not an aggregate");
      goto VmHalt;
    }
  }
  SEST_NEXT();

  SEST_CASE(CallDirect) : {
    const BcInstr &I = *IP++;
    const auto *F = static_cast<const FunctionDecl *>(I.Ptr);
    Value V = callFunction(F, RegBase + I.B, I.C, RegBase + Ch.NumRegs);
    R = Regs.data() + RegBase; // Regs may have grown
    if (halted())
      goto VmHalt;
    R[I.A] = V;
  }
  SEST_NEXT();

  SEST_CASE(CallIndirect) : {
    const BcInstr &I = *IP++;
    const FunctionDecl *F = R[I.X].FnVal; // CheckFn ensured non-null
    // Struct-parameter guard against the *resolved* callee, mirroring
    // the walker's argument-evaluation check (the statically emitted
    // CheckStructArg covers well-typed programs; this covers callee
    // expressions whose static type is unknown).
    const auto &ParamTypes = F->type()->params();
    for (size_t A = 0; A < I.C && A < ParamTypes.size(); ++A)
      if (ParamTypes[A]->isStruct() && !R[I.B + A].isPtr()) {
        fail("struct argument is not an aggregate");
        goto VmHalt;
      }
    Value V;
    if (F->isBuiltin())
      V = doBuiltin(F, R + I.B, I.C);
    else
      V = callFunction(F, RegBase + I.B, I.C, RegBase + Ch.NumRegs);
    R = Regs.data() + RegBase;
    if (halted())
      goto VmHalt;
    R[I.A] = V;
  }
  SEST_NEXT();

  SEST_CASE(CallBuiltin) : {
    const BcInstr &I = *IP++;
    Value V = doBuiltin(static_cast<const FunctionDecl *>(I.Ptr), R + I.B,
                        I.C);
    if (halted())
      goto VmHalt;
    R[I.A] = V;
  }
  SEST_NEXT();

  SEST_CASE(Halt) : {
    fail("internal error: bytecode fell off chunk end");
    goto VmHalt;
  }

#if !SEST_BC_THREADED
    }
  }
#endif
#undef SEST_CASE
#undef SEST_NEXT

VmHalt:
  InstrCount += NDisp;
  return Value::makeInt(0);
VmRet:
  InstrCount += NDisp;
  return Ret;
}

} // namespace

RunResult sest::bc::runProgramBytecode(const TranslationUnit &Unit,
                                       const CfgModule &Cfgs,
                                       const BcModule &Module,
                                       const ProgramInput &Input,
                                       const InterpOptions &Options) {
  BytecodeVM VM(Unit, Cfgs, Module, Input, Options);
  return VM.run();
}
