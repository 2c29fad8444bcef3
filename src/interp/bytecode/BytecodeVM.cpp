//===- interp/bytecode/BytecodeVM.cpp - Bytecode executor ------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
//
// The runtime (memory model, conversions, builtins, failure handling,
// step accounting) is a line-for-line transplant of interp/Interp.cpp;
// any behavioral drift between the two engines is a bug, and
// tests/test_bytecode_diff.cpp exists to catch it. Only the execution
// core differs: instead of recursing over the AST, dispatch() runs a
// flat instruction stream with all static decisions (offsets, strides,
// jump targets, diagnostics) resolved at lowering time.
//
//===----------------------------------------------------------------------===//

#include "interp/bytecode/BytecodeVM.h"

#include "obs/Telemetry.h"
#include "support/Prng.h"
#include "support/WrapInt.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdio>

using namespace sest;
using namespace sest::bc;

// Computed-goto dispatch needs the GNU labels-as-values extension.
#if defined(__GNUC__) || defined(__clang__)
#define SEST_BC_THREADED 1
#else
#define SEST_BC_THREADED 0
#endif

namespace {

/// A resolved memory location (one cell). Identical to the walker's.
struct Loc {
  uint32_t Space = 0;
  int64_t Offset = 0;
};

class BytecodeVM {
public:
  BytecodeVM(const TranslationUnit &Unit, const CfgModule &Cfgs,
             const BcModule &M, const ProgramInput &Input,
             const InterpOptions &Options)
      : Unit(Unit), Cfgs(Cfgs), M(M), Input(Input), Options(Options),
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
  void copyCells(Loc Dst, Loc Src, int64_t N) {
    for (int64_t I = 0; I < N && !halted(); ++I) {
      Value V = loadCell({Src.Space, Src.Offset + I});
      storeCell({Dst.Space, Dst.Offset + I}, V);
    }
  }
  void zeroCells(Loc Base, int64_t N) {
    for (int64_t I = 0; I < N; ++I)
      storeCell({Base.Space, Base.Offset + I}, Value::makeInt(0));
  }

  static Loc locOf(const Value &V) { return {V.PtrVal.Space, V.PtrVal.Offset}; }

  Loc varLoc(const VarDecl *V) const {
    if (V->storage() == StorageKind::Global)
      return {static_cast<uint32_t>(MemSpace::Global), V->cellOffset()};
    return {static_cast<uint32_t>(MemSpace::Stack),
            FrameBase + V->cellOffset()};
  }

  //===--------------------------------------------------------------------===//
  // Conversions
  //===--------------------------------------------------------------------===//

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
  // Binary operators (walker's applyBinary with compile-time strides)
  //===--------------------------------------------------------------------===//

  Value applyBinary(BinaryOp Op, Value L, Value R, int64_t ResultStride,
                    int64_t LhsStride);

  //===--------------------------------------------------------------------===//
  // Calls / builtins / execution
  //===--------------------------------------------------------------------===//

  Value callFunction(const FunctionDecl *F, size_t ArgBase, size_t NArgs,
                     size_t NewRegBase);
  Value dispatch(const BcChunk &Ch);
  Value doBuiltin(const FunctionDecl *F, size_t ArgBase, size_t NArgs);

  void setupGlobals();
  Loc stringLoc(uint32_t StringId) const {
    return {static_cast<uint32_t>(MemSpace::Global), StringBase[StringId]};
  }

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
  const BcModule &M;
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
  std::vector<uint64_t> SelfSteps;
  uint64_t *CurSelfSteps = nullptr;

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
  LayoutCostCounters LayoutCost;
  /// Instructions dispatched (telemetry: interp.bytecode.instrs).
  uint64_t InstrCount = 0;

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
  uintptr_t HostStackBase = 0;
};

//===----------------------------------------------------------------------===//
// Globals and program startup
//===----------------------------------------------------------------------===//

void BytecodeVM::setupGlobals() {
  // Layout: [globals][string literals...], each string NUL-terminated.
  // Identical to the walker; the declaration-order initializers run in
  // the module's GlobalInit chunk instead (they tick, so they must go
  // through the dispatch loop).
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
  }
}

RunResult BytecodeVM::run() {
  obs::ScopedPhase Phase("interp.run", Input.Name);
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

  char HostStackAnchor;
  HostStackBase = reinterpret_cast<uintptr_t>(&HostStackAnchor);

  setupGlobals();
  if (Regs.size() < M.GlobalInit.NumRegs)
    Regs.resize(M.GlobalInit.NumRegs);
  RegBase = 0;
  dispatch(M.GlobalInit);

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
    Ret = callFunction(Main, 0, 0, 0);

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

void BytecodeVM::flushTelemetry() const {
  if (!obs::telemetryActive())
    return;
  obs::counterAdd("interp.runs");
  obs::counterAdd("interp.steps.executed", static_cast<double>(Steps));
  obs::counterAdd("interp.bytecode.instrs",
                  static_cast<double>(InstrCount));
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
// Binary operators
//===----------------------------------------------------------------------===//

Value BytecodeVM::applyBinary(BinaryOp Op, Value L, Value R,
                              int64_t ResultStride, int64_t LhsStride) {
  switch (Op) {
  case BinaryOp::Add: {
    if (L.isPtr() || R.isPtr()) {
      Value P = L.isPtr() ? L : R;
      Value N = L.isPtr() ? R : L;
      RuntimePtr Out = P.PtrVal;
      Out.Offset += N.asInt() * ResultStride;
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
      return Value::makeInt((L.PtrVal.Offset - R.PtrVal.Offset) / LhsStride);
    }
    if (L.isPtr()) {
      RuntimePtr Out = L.PtrVal;
      Out.Offset -= R.asInt() * ResultStride;
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
    break; // lowered to branches by the compiler
  }
  return Value::makeInt(0);
}

//===----------------------------------------------------------------------===//
// Function calls
//===----------------------------------------------------------------------===//

Value BytecodeVM::callFunction(const FunctionDecl *F, size_t ArgBase,
                               size_t NArgs, size_t NewRegBase) {
  if (CallDepth >= Options.MaxCallDepth)
    return failLimit(RunLimit::CallDepth,
                     "call depth limit exceeded in '" + F->name() +
                         "' (MaxCallDepth=" +
                         std::to_string(Options.MaxCallDepth) + ")");
  // The VM still recurses on the host stack (one dispatch() frame per
  // mini-C call), so keep the walker's host-stack budget; VM frames are
  // much smaller, so the limit only gets *harder* to hit.
  char HostStackProbe;
  uintptr_t Here = reinterpret_cast<uintptr_t>(&HostStackProbe);
  size_t Used = HostStackBase > Here ? HostStackBase - Here
                                     : Here - HostStackBase;
  if (Used > Options.MaxHostStackBytes)
    return failLimit(RunLimit::HostStack,
                     "call depth limit exceeded in '" + F->name() +
                         "' (host stack budget, MaxHostStackBytes=" +
                         std::to_string(Options.MaxHostStackBytes) + ")");
  const BcChunk *Ch = M.chunkFor(F);
  if (!Ch)
    return fail("call to undefined function '" + F->name() + "'");

  Prof.Functions[F->functionId()].EntryCount += 1;
  ++LayoutCost.Calls;

  int64_t SavedBase = FrameBase;
  double SavedFactor = CostFactor;
  uint64_t *SavedSelf = CurSelfSteps;
  FunctionProfile *SavedFP = CurFP;
  const std::vector<std::vector<uint8_t>> *SavedFall = CurFall;
  size_t SavedRegBase = RegBase;
  FrameBase = static_cast<int64_t>(Stack.size());
  // Like the walker, this early return leaves FrameBase clobbered; the
  // run is halted, so outer teardowns make it unobservable.
  if (Stack.size() + F->frameSizeCells() > (1u << 24))
    return failLimit(RunLimit::HostFrame,
                     "stack overflow in '" + F->name() + "'");
  Stack.resize(Stack.size() + F->frameSizeCells(), Value::makeInt(0));
  CostFactor = factorFor(F);
  if (F->functionId() < SelfSteps.size())
    CurSelfSteps = &SelfSteps[F->functionId()];
  ++CallDepth;
  CallDepthHighWater = std::max(CallDepthHighWater, CallDepth);
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
        copyCells(PL, locOf(Arg), PTy->sizeInCells());
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

  --CallDepth;
  CostFactor = SavedFactor;
  CurSelfSteps = SavedSelf;
  CurFP = SavedFP;
  CurFall = SavedFall;
  RegBase = SavedRegBase;
  Stack.resize(FrameBase);
  FrameBase = SavedBase;
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
    Loc L = stringLoc(static_cast<uint32_t>(I.X));
    R[I.A] = Value::makePtr({L.Space, L.Offset});
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
    R[I.A] = Value::makePtr({V.PtrVal.Space, V.PtrVal.Offset + I.X});
  }
  SEST_NEXT();

  SEST_CASE(IndexLoc) : {
    const BcInstr &I = *IP++;
    const Value &Base = R[I.B];
    if (!Base.isPtr()) {
      fail("indexing a non-pointer value");
      goto VmHalt;
    }
    R[I.A] = Value::makePtr(
        {Base.PtrVal.Space, Base.PtrVal.Offset + R[I.C].asInt() * I.X});
  }
  SEST_NEXT();

  SEST_CASE(AddOffs) : {
    const BcInstr &I = *IP++;
    const Value &V = R[I.B];
    R[I.A] = Value::makePtr({V.PtrVal.Space, V.PtrVal.Offset + I.X});
  }
  SEST_NEXT();

  SEST_CASE(LoadCellD) : {
    const BcInstr &I = *IP++;
    Value V = loadCell(locOf(R[I.B]));
    if (halted())
      goto VmHalt;
    R[I.A] = V;
  }
  SEST_NEXT();

  SEST_CASE(ConvStore) : {
    const BcInstr &I = *IP++;
    Value V = convert(R[I.C], static_cast<const Type *>(I.Ptr));
    storeCell(locOf(R[I.B]), V);
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
    Loc Dst = locOf(R[I.B]);
    copyCells(Dst, locOf(Src), I.X);
    if (halted())
      goto VmHalt;
    R[I.A] = Value::makePtr({Dst.Space, Dst.Offset});
  }
  SEST_NEXT();

  SEST_CASE(ZeroLoc) : {
    const BcInstr &I = *IP++;
    zeroCells(locOf(R[I.A]), I.Imm);
    if (halted())
      goto VmHalt;
  }
  SEST_NEXT();

  SEST_CASE(StrCopyLoc) : {
    const BcInstr &I = *IP++;
    Loc Base = locOf(R[I.A]);
    zeroCells(Base, I.X);
    if (halted())
      goto VmHalt;
    const std::string &S =
        static_cast<const StringLitExpr *>(I.Ptr)->value();
    for (size_t J = 0; J < S.size(); ++J)
      storeCell({Base.Space, Base.Offset + static_cast<int64_t>(J)},
                Value::makeInt(static_cast<unsigned char>(S[J])));
    if (halted())
      goto VmHalt;
  }
  SEST_NEXT();

  SEST_CASE(Neg) : {
    const BcInstr &I = *IP++;
    const Value &V = R[I.B];
    R[I.A] = V.isDouble() ? Value::makeDouble(-V.DoubleVal)
                          : Value::makeInt(-V.asInt());
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
      Value V = loadCell(locOf(P));
      if (halted())
        goto VmHalt;
      R[I.A] = V;
    }
  }
  SEST_NEXT();

  SEST_CASE(IncDec) : {
    const BcInstr &I = *IP++;
    Loc L = locOf(R[I.B]);
    Value Old = loadCell(L);
    if (halted())
      goto VmHalt;
    bool IsInc = I.Sub & IncDecIsInc;
    Value New;
    if (Old.isPtr()) {
      RuntimePtr P = Old.PtrVal;
      P.Offset += IsInc ? I.X : -I.X;
      New = Value::makePtr(P);
    } else if (Old.isDouble()) {
      New = Value::makeDouble(Old.DoubleVal + (IsInc ? 1.0 : -1.0));
    } else {
      New = Value::makeInt(Old.asInt() + (IsInc ? 1 : -1));
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
      // Zero-argument calls to defined functions additionally run the
      // walker's callFunction prologue before the body's halted check
      // stops them: entry count and call-depth high-water leak through.
      const auto *F = static_cast<const FunctionDecl *>(I.Ptr);
      if (!I.Sub && !F->isBuiltin() && CallDepth < Options.MaxCallDepth) {
        char HostStackProbe;
        uintptr_t Here = reinterpret_cast<uintptr_t>(&HostStackProbe);
        size_t Used = HostStackBase > Here ? HostStackBase - Here
                                           : Here - HostStackBase;
        if (Used <= Options.MaxHostStackBytes && M.chunkFor(F)) {
          Prof.Functions[F->functionId()].EntryCount += 1;
          ++LayoutCost.Calls;
          if (Stack.size() + F->frameSizeCells() <= (1u << 24))
            CallDepthHighWater =
                std::max(CallDepthHighWater, CallDepth + 1);
        }
      }
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
      V = doBuiltin(F, RegBase + I.B, I.C);
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
    Value V = doBuiltin(static_cast<const FunctionDecl *>(I.Ptr),
                        RegBase + I.B, I.C);
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

//===----------------------------------------------------------------------===//
// Builtins
//===----------------------------------------------------------------------===//

Value BytecodeVM::doBuiltin(const FunctionDecl *F, size_t ArgBase,
                            size_t NArgs) {
  // Arity is checked by sema; the guard keeps a malformed unit from
  // reading past the register file (the walker would assert instead).
  auto Arg = [&](size_t I) {
    return I < NArgs ? Regs[ArgBase + I] : Value::makeInt(0);
  };
  switch (F->builtin()) {
  case BuiltinKind::PrintInt:
    Output += std::to_string(Arg(0).asInt());
    return Value::makeInt(0);
  case BuiltinKind::PrintChar:
    Output += static_cast<char>(Arg(0).asInt());
    return Value::makeInt(0);
  case BuiltinKind::PrintStr: {
    Value A0 = Arg(0);
    if (!A0.isPtr())
      return fail("print_str expects a string pointer");
    RuntimePtr P = A0.PtrVal;
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
    std::snprintf(Buf, sizeof(Buf), "%.6g", Arg(0).asDouble());
    Output += Buf;
    return Value::makeInt(0);
  }
  case BuiltinKind::ReadInt:
    return Value::makeInt(readIntFromInput());
  case BuiltinKind::ReadChar:
    return Value::makeInt(readCharFromInput());
  case BuiltinKind::Malloc: {
    int64_t N = Arg(0).asInt();
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
    Value A0 = Arg(0);
    if (!A0.isPtr())
      return fail("free of a non-pointer value");
    RuntimePtr P = A0.PtrVal;
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
    ExitVal = Arg(0).asInt();
    return Value::makeInt(0);
  case BuiltinKind::Rand:
    return Value::makeInt(static_cast<int64_t>(Rng.next() >> 33));
  case BuiltinKind::Srand:
    Rng = Prng(static_cast<uint64_t>(Arg(0).asInt()));
    return Value::makeInt(0);
  case BuiltinKind::Sqrt: {
    double D = Arg(0).asDouble();
    if (D < 0)
      return fail("sqrt of a negative number");
    return Value::makeDouble(std::sqrt(D));
  }
  case BuiltinKind::Fabs:
    return Value::makeDouble(std::fabs(Arg(0).asDouble()));
  case BuiltinKind::Floor:
    return Value::makeDouble(std::floor(Arg(0).asDouble()));
  case BuiltinKind::None:
    break;
  }
  return fail("unknown builtin '" + F->name() + "'");
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
