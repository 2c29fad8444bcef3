//===- interp/RunState.h - The interpreters' shared runtime ------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime both interpreter engines execute on: the state of one run,
/// the cell memory model and its fault checks, conversions, binary
/// operators, builtins, the input readers, step accounting, the call
/// prologue and epilogue, and RunResult assembly. The tree-walker
/// (Interp.cpp) and the bytecode VM (bytecode/BytecodeVM.cpp) derive from
/// RunState and keep only their dispatch: the walker recurses over the
/// AST and walks the CFG, the VM runs its instruction loop over a
/// register file.
///
/// The walker remains the independent check on the VM's lowering:
/// control flow, evaluation order and step accounting. What is defined
/// here has its second implementation in the native tier's C runtime
/// (backend/CBackend.cpp); the RuntimeDiff and BinOpDiff matrices in
/// tests/test_bytecode_diff.cpp hold the engines to each other.
///
/// Everything here sits in an anonymous namespace, so each engine's
/// translation unit gets its own internal-linkage copy, as it did when
/// each engine kept a private runtime, and the inliner judges each copy
/// by that engine's calls alone: applyBinary, called once from the VM's
/// dispatch loop, is inlined there.
///
//===----------------------------------------------------------------------===//

#ifndef INTERP_RUNSTATE_H
#define INTERP_RUNSTATE_H

#include "interp/Interp.h"
#include "obs/Telemetry.h"
#include "support/Prng.h"
#include "support/WrapInt.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace sest {
namespace {

/// A resolved memory location (one cell): a pointer's space and offset.
using Loc = RuntimePtr;

/// \p L moved by \p Delta cells. Offsets wrap like every int operation.
inline Loc offsetBy(Loc L, int64_t Delta) {
  return {L.Space, wrapAdd(L.Offset, Delta)};
}

/// Pointer step size for arithmetic on \p PtrTy (cells per element).
inline int64_t strideOf(const Type *PtrTy) {
  const auto *PT = typeDynCast<PointerType>(PtrTy);
  if (!PT)
    return 1;
  int64_t S = PT->pointee()->sizeInCells();
  return S > 0 ? S : 1;
}

class RunState {
protected:
  RunState(const TranslationUnit &Unit, const CfgModule &Cfgs,
           const ProgramInput &Input, const InterpOptions &Options)
      : Unit(Unit), Cfgs(Cfgs), Input(Input), Options(Options),
        Rng(Input.RandSeed) {}

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
      Value V = loadCell(offsetBy(Src, I));
      storeCell(offsetBy(Dst, I), V);
    }
  }
  void zeroCells(Loc Base, int64_t N) {
    for (int64_t I = 0; I < N; ++I)
      storeCell(offsetBy(Base, I), Value::makeInt(0));
  }

  Loc varLoc(const VarDecl *V) const {
    if (V->storage() == StorageKind::Global)
      return {static_cast<uint32_t>(MemSpace::Global), V->cellOffset()};
    return {static_cast<uint32_t>(MemSpace::Stack),
            FrameBase + V->cellOffset()};
  }

  Loc stringLoc(uint32_t StringId) const {
    return {static_cast<uint32_t>(MemSpace::Global), StringBase[StringId]};
  }

  //===--------------------------------------------------------------------===//
  // Conversions and operators
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
        if (V.isPtr() && V.ptr().isNull())
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

  /// Every binary operator but && and ||, which the engines lower to
  /// control flow. \p ResultStride is strideOf the expression's type (the
  /// step of pointer + int and pointer - int), \p LhsStride strideOf the
  /// left operand's type (the divisor of pointer - pointer).
  Value applyBinary(BinaryOp Op, Value L, Value R, int64_t ResultStride,
                    int64_t LhsStride) {
    switch (Op) {
    case BinaryOp::Add: {
      if (L.isPtr() || R.isPtr()) {
        Value P = L.isPtr() ? L : R;
        Value N = L.isPtr() ? R : L;
        return Value::makePtr(
            offsetBy(P.ptr(), wrapMul(N.asInt(), ResultStride)));
      }
      if (L.isDouble() || R.isDouble())
        return Value::makeDouble(L.asDouble() + R.asDouble());
      return Value::makeInt(wrapAdd(L.asInt(), R.asInt()));
    }
    case BinaryOp::Sub: {
      if (L.isPtr() && R.isPtr()) {
        if (L.ptr().Space != R.ptr().Space)
          return fail("subtracting pointers into different objects");
        return Value::makeInt(wrapSub(L.ptr().Offset, R.ptr().Offset) /
                              LhsStride);
      }
      if (L.isPtr()) {
        RuntimePtr Out = L.ptr();
        Out.Offset = wrapSub(Out.Offset, wrapMul(R.asInt(), ResultStride));
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
        RuntimePtr A = L.ptr(), B = R.ptr();
        if (A.Space != B.Space)
          Cmp = A.Space < B.Space ? -1 : 1;
        else
          Cmp = A.Offset < B.Offset ? -1 : (A.Offset > B.Offset ? 1 : 0);
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
        Equal = L.ptr() == R.ptr();
      else if (L.isFnPtr() || R.isFnPtr())
        Equal = L.isFnPtr() && R.isFnPtr()
                    ? L.FnVal == R.FnVal
                    : (L.isFnPtr() ? L.FnVal == nullptr && !R.isTruthy()
                                   : R.FnVal == nullptr && !L.isTruthy());
      else if (L.isPtr() || R.isPtr()) {
        // Pointer vs integer: equal iff both are "null-ish zero".
        const Value &P = L.isPtr() ? L : R;
        const Value &N = L.isPtr() ? R : L;
        Equal = P.ptr().isNull() && N.asInt() == 0;
      } else if (L.isDouble() || R.isDouble())
        Equal = L.asDouble() == R.asDouble();
      else
        Equal = L.asInt() == R.asInt();
      return Value::makeInt((Op == BinaryOp::Eq) == Equal ? 1 : 0);
    }
    case BinaryOp::LogicalAnd:
    case BinaryOp::LogicalOr:
      break;
    }
    return Value::makeInt(0);
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
  // Calls
  //===--------------------------------------------------------------------===//

  /// What a call saves of its caller; see enterCall and leaveCall.
  struct SavedFrame {
    int64_t FrameBase = 0;
    double CostFactor = 1.0;
    uint64_t *SelfSteps = nullptr;
  };

  /// The call prologue: the call-depth, host-stack, defined-callee
  /// (\p HasBody) and frame-size checks, then \p F's entry count and the
  /// push of its frame. Returns false when a check halted the run; the
  /// engine then skips the body and leaveCall.
  bool enterCall(const FunctionDecl *F, bool HasBody, SavedFrame &Saved) {
    if (CallDepth >= Options.MaxCallDepth) {
      refuseCall(RunLimit::CallDepth, F);
      return false;
    }
    // Both engines recurse on the host stack (the walker through
    // evalExpr, the VM one dispatch() frame per call); on large-frame
    // builds it can overflow long before MaxCallDepth, so budget it
    // directly.
    char HostStackProbe;
    uintptr_t Here = reinterpret_cast<uintptr_t>(&HostStackProbe);
    size_t Used = HostStackBase > Here ? HostStackBase - Here
                                       : Here - HostStackBase;
    if (Used > Options.MaxHostStackBytes) {
      refuseCall(RunLimit::HostStack, F);
      return false;
    }
    if (!HasBody) {
      refuseCall(RunLimit::None, F);
      return false;
    }

    Prof.Functions[F->functionId()].EntryCount += 1;
    ++LayoutCost.Calls;

    Saved = {FrameBase, CostFactor, CurSelfSteps};
    FrameBase = static_cast<int64_t>(Stack.size());
    // This early return leaves FrameBase clobbered; the run is halted, so
    // the callers' teardowns make it unobservable.
    if (Stack.size() + F->frameSizeCells() > (1u << 24)) {
      refuseCall(RunLimit::HostFrame, F);
      return false;
    }
    Stack.resize(Stack.size() + F->frameSizeCells(), Value::makeInt(0));
    CostFactor = factorFor(F);
    if (F->functionId() < SelfSteps.size())
      CurSelfSteps = &SelfSteps[F->functionId()];
    ++CallDepth;
    CallDepthHighWater = std::max(CallDepthHighWater, CallDepth);
    return true;
  }

  /// The call epilogue: pops the frame enterCall pushed.
  void leaveCall(const SavedFrame &Saved) {
    --CallDepth;
    CostFactor = Saved.CostFactor;
    CurSelfSteps = Saved.SelfSteps;
    Stack.resize(FrameBase);
    FrameBase = Saved.FrameBase;
  }

  /// Halts the run for a call enterCall refused: \p Limit is the limit
  /// that tripped, None for a callee with no body. Kept out of line so
  /// the messages stay off the call path.
  [[gnu::cold, gnu::noinline]] void refuseCall(RunLimit Limit,
                                               const FunctionDecl *F) {
    switch (Limit) {
    case RunLimit::CallDepth:
      failLimit(Limit, "call depth limit exceeded in '" + F->name() +
                           "' (MaxCallDepth=" +
                           std::to_string(Options.MaxCallDepth) + ")");
      return;
    case RunLimit::HostStack:
      failLimit(Limit, "call depth limit exceeded in '" + F->name() +
                           "' (host stack budget, MaxHostStackBytes=" +
                           std::to_string(Options.MaxHostStackBytes) + ")");
      return;
    case RunLimit::HostFrame:
      failLimit(Limit, "stack overflow in '" + F->name() + "'");
      return;
    default:
      fail("call to undefined function '" + F->name() + "'");
      return;
    }
  }

  //===--------------------------------------------------------------------===//
  // Builtins
  //===--------------------------------------------------------------------===//

  /// Runs builtin \p F on its \p NArgs scalar arguments.
  Value doBuiltin(const FunctionDecl *F, const Value *Args, size_t NArgs) {
    // Arity is checked by sema; the guard keeps a malformed unit from
    // reading past the arguments.
    Value A0 = NArgs ? Args[0] : Value::makeInt(0);
    switch (F->builtin()) {
    case BuiltinKind::PrintInt:
      Output += std::to_string(A0.asInt());
      return Value::makeInt(0);
    case BuiltinKind::PrintChar:
      Output += static_cast<char>(A0.asInt());
      return Value::makeInt(0);
    case BuiltinKind::PrintStr: {
      if (!A0.isPtr())
        return fail("print_str expects a string pointer");
      for (int64_t I = 0; I < (1 << 20); ++I) {
        Value C = loadCell(offsetBy(A0.ptr(), I));
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
      std::snprintf(Buf, sizeof(Buf), "%.6g", A0.asDouble());
      Output += Buf;
      return Value::makeInt(0);
    }
    case BuiltinKind::ReadInt:
      return Value::makeInt(readInt());
    case BuiltinKind::ReadChar:
      return Value::makeInt(readChar());
    case BuiltinKind::Malloc: {
      int64_t N = A0.asInt();
      if (N <= 0)
        return Value::makeNull();
      if (HeapCellsUsed + N > Options.MaxHeapCells)
        return failLimit(RunLimit::HeapCells,
                         "heap limit exceeded (MaxHeapCells=" +
                             std::to_string(Options.MaxHeapCells) + ")");
      HeapCellsUsed += N;
      HeapHighWater = std::max(HeapHighWater, HeapCellsUsed);
      Heap.push_back(
          HeapBlock{std::vector<Value>(N, Value::makeInt(0)), false});
      return Value::makePtr(
          {static_cast<uint32_t>(MemSpace::HeapBase) +
               static_cast<uint32_t>(Heap.size() - 1),
           0});
    }
    case BuiltinKind::Free: {
      if (!A0.isPtr())
        return fail("free of a non-pointer value");
      RuntimePtr P = A0.ptr();
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
      ExitVal = A0.asInt();
      return Value::makeInt(0);
    case BuiltinKind::Rand:
      return Value::makeInt(static_cast<int64_t>(Rng.next() >> 33));
    case BuiltinKind::Srand:
      Rng = Prng(static_cast<uint64_t>(A0.asInt()));
      return Value::makeInt(0);
    case BuiltinKind::Sqrt: {
      double D = A0.asDouble();
      if (D < 0)
        return fail("sqrt of a negative number");
      return Value::makeDouble(std::sqrt(D));
    }
    case BuiltinKind::Fabs:
      return Value::makeDouble(std::fabs(A0.asDouble()));
    case BuiltinKind::Floor:
      return Value::makeDouble(std::floor(A0.asDouble()));
    case BuiltinKind::None:
      break;
    }
    return fail("unknown builtin '" + F->name() + "'");
  }

  /// read_char(): the next input byte, -1 at EOF.
  int readChar() {
    if (InPos >= Input.Text.size())
      return -1;
    return static_cast<unsigned char>(Input.Text[InPos++]);
  }

  /// read_int(): the next whitespace-delimited integer; -1 at EOF or when
  /// no digit follows. Out-of-range input wraps like every int operation.
  int64_t readInt() {
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
      V = wrapAdd(wrapMul(V, 10), Input.Text[InPos] - '0');
      ++InPos;
      Any = true;
    }
    if (!Any)
      return -1;
    return Neg ? wrapSub(0, V) : V;
  }

  //===--------------------------------------------------------------------===//
  // Run setup and result
  //===--------------------------------------------------------------------===//

  /// Sizes the profile, anchors the host-stack budget and lays out the
  /// globals: [globals][string literals...], each string NUL-terminated.
  /// The engine runs the global initializers next.
  void beginRun() {
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

    char HostStackAnchor;
    HostStackBase = reinterpret_cast<uintptr_t>(&HostStackAnchor);

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

  /// The program's main, or null with \p R's error set when it has none
  /// that can run.
  const FunctionDecl *findMain(RunResult &R) const {
    const FunctionDecl *Main = Unit.findFunction("main");
    if (!Main || !Main->isDefined()) {
      R.Error = "program has no main function";
      return nullptr;
    }
    if (!Main->params().empty()) {
      R.Error = "main must take no parameters";
      return nullptr;
    }
    return Main;
  }

  /// The run's RunResult, given main's return value; also flushes the
  /// run's resource usage into the ambient telemetry context.
  RunResult finishRun(Value Ret) {
    RunResult R;
    R.Ok = !Failed;
    R.Error = ErrorMsg;
    // A limit that trips inside main's return expression still leaves its
    // value in Ret; a failed run has no exit code.
    R.ExitCode = Exited ? ExitVal : Failed ? 0 : Ret.asInt();
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

  /// One-shot flush of the run's accumulated resource usage. The hot
  /// loops only touch plain members; all counter traffic happens here.
  void flushTelemetry() const {
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
  /// Host-stack anchor taken when the run begins; see
  /// InterpOptions::MaxHostStackBytes.
  uintptr_t HostStackBase = 0;
};

} // namespace
} // namespace sest

#endif // INTERP_RUNSTATE_H
