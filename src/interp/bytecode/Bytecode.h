//===- interp/bytecode/Bytecode.h - Bytecode ISA ----------------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The register-based bytecode the fast profiling tier executes. Each
/// function's CFG is lowered once (see BytecodeCompiler.h) into a flat
/// instruction stream over a per-frame register window; the VM (see
/// BytecodeVM.h) runs it with a threaded dispatch loop.
///
/// The design constraint that shapes everything here is *bit-identical
/// profiles*: the tree-walker in interp/Interp.cpp ticks the step/cycle
/// accounting once per AST node in preorder (parent before operands), and
/// bumps block / arc / entry / call-site counters at specific points
/// relative to those ticks, including on runs aborted by a resource
/// limit. The bytecode therefore keeps ticks as explicit instructions
/// (Tick / TickCall / BlockEnter) placed exactly where the walker ticks,
/// merging only ticks that are adjacent in the walker's execution order
/// with nothing observable between them.
///
//===----------------------------------------------------------------------===//

#ifndef INTERP_BYTECODE_BYTECODE_H
#define INTERP_BYTECODE_BYTECODE_H

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace sest {
class FunctionDecl;
class StringLitExpr;
class Type;
} // namespace sest

namespace sest::bc {

/// Every opcode, as an X-macro so the enum, the name table, and the
/// computed-goto jump table cannot drift apart.
///
/// Operand conventions (fields of BcInstr): A/B/C are register indices
/// into the current frame window unless noted; X is a 32-bit immediate
/// (cell offset, block id, instruction offset, stride); Imm/Dbl/Ptr is
/// the 64-bit payload.
#define SEST_BC_OPS(X)                                                       \
  /* -- constants and moves (pure, tickless) -- */                           \
  X(ConstInt)    /* A=dst, Imm=value */                                      \
  X(ConstDouble) /* A=dst, Dbl=value */                                      \
  X(ConstStr)    /* A=dst, X=string id (resolved via StringBase) */          \
  X(ConstFn)     /* A=dst, Ptr=FunctionDecl */                               \
  X(Move)        /* A=dst, B=src */                                          \
  X(Truthy)      /* A=dst, B=src; dst = src.isTruthy() ? 1 : 0 */            \
  /* -- variables -- */                                                      \
  X(LoadGlobal)  /* A=dst, X=cell offset */                                  \
  X(LoadLocal)   /* A=dst, X=frame cell offset */                            \
  X(LeaGlobal)   /* A=dst, X=cell offset; dst = Ptr{Global, X} */            \
  X(LeaLocal)    /* A=dst, X=offset; dst = Ptr{Stack, FrameBase+X} */        \
  /* -- lvalue computation (locs are Ptr values in registers) -- */          \
  X(LvalFromPtr) /* A=dst, B=src, Ptr=msg; fail msg unless src is Ptr */     \
  X(ArrowLoc)    /* A=dst, B=base, X=field offset */                         \
  X(IndexLoc)    /* A=dst, B=base, C=index, X=stride */                      \
  X(AddOffs)     /* A=dst, B=base, X=offset delta */                         \
  /* -- memory -- */                                                         \
  X(LoadCellD)   /* A=dst, B=loc */                                          \
  X(ConvStore)   /* A=dst, B=loc, C=val, Ptr=Type; dst = converted val */    \
  X(StructAssign)/* A=dst, B=dst loc, C=src val, X=size in cells */          \
  X(ZeroLoc)     /* A=loc, Imm=cell count */                                 \
  X(StrCopyLoc)  /* A=loc, X=cells to zero, Ptr=StringLitExpr */             \
  /* -- unary -- */                                                          \
  X(Neg)         /* A=dst, B=src */                                          \
  X(LogNot)      /* A=dst, B=src */                                          \
  X(BitNot)      /* A=dst, B=src */                                          \
  X(DerefRV)     /* A=dst, B=src, Sub=1 when aggregate/function typed */     \
  X(IncDec)      /* A=dst, B=loc, Sub=(inc|pre flags), X=stride */           \
  /* -- binary / conversion -- */                                            \
  X(BinOp)       /* A=dst, B=lhs, C=rhs, Sub=BinaryOp, X=stride(result),     \
                    Imm=stride(lhs type) */                                  \
  X(Conv)        /* A=dst, B=src, Ptr=Type */                                \
  /* -- step accounting -- */                                                \
  X(Tick)        /* X=count; one walker tick per count, stop on limit */     \
  X(TickCall)    /* one tick for a direct CallExpr node; X=call-site id or   \
                    -1, Ptr=callee FunctionDecl, Sub=1 when the call has     \
                    arguments. On tick failure replicates the walker's       \
                    counter leaks (see BytecodeVM.cpp). */                   \
  X(BlockEnter)  /* X=block id; tick, then BlockCounts[X] += 1 */            \
  /* -- control flow -- */                                                   \
  X(Jmp)         /* X=target */                                              \
  X(BrFalse)     /* A=cond, X=target */                                      \
  X(BrTrue)      /* A=cond, X=target */                                      \
  X(ArcJmp)      /* B=block id, C=slot, X=target */                          \
  X(ArcCondBr)   /* A=cond, B=block id, X=true target, Imm=false target */   \
  X(ArcSwitch)   /* A=value, B=block id, Ptr=BcSwitchTable */                \
  X(RetVal)      /* A=src, Ptr=return Type (convert before returning) */     \
  X(RetVoid)     /* plain "return;": int 0, no conversion */                 \
  X(FailMsg)     /* Ptr=pooled std::string message */                        \
  /* -- calls -- */                                                          \
  X(CheckFn)     /* A=src; fail unless src is a non-null function ptr */     \
  X(SiteBump)    /* X=call-site id */                                        \
  X(CheckStructArg) /* A=src; fail unless src is a Ptr */                    \
  X(CallDirect)  /* A=dst, B=arg base, C=arg count, Ptr=FunctionDecl */      \
  X(CallIndirect)/* A=dst, B=arg base, C=arg count, X=callee reg */          \
  X(CallBuiltin) /* A=dst, B=arg base, C=arg count, Ptr=FunctionDecl */      \
  X(Halt)        /* compiler bug backstop; never emitted on a valid path */

enum class BcOp : uint8_t {
#define SEST_BC_OP_ENUM(Name) Name,
  SEST_BC_OPS(SEST_BC_OP_ENUM)
#undef SEST_BC_OP_ENUM
};

/// Number of opcodes (jump-table size).
inline constexpr unsigned NumBcOps = 0
#define SEST_BC_OP_COUNT(Name) +1
    SEST_BC_OPS(SEST_BC_OP_COUNT)
#undef SEST_BC_OP_COUNT
    ;

/// One instruction; 24 bytes, trivially copyable.
struct BcInstr {
  BcOp K = BcOp::Halt;
  uint8_t Sub = 0;        ///< Secondary selector (BinaryOp, flags).
  uint16_t A = 0;         ///< Usually the destination register.
  uint16_t B = 0;
  uint16_t C = 0;
  int32_t X = 0;          ///< Offset / id / stride / jump target.
  union {
    int64_t Imm;
    double Dbl;
    const void *Ptr;
  };

  BcInstr() : Imm(0) {}
};

static_assert(sizeof(BcInstr) == 24, "BcInstr layout regressed");

/// IncDec Sub flags.
enum : uint8_t { IncDecIsInc = 1, IncDecIsPre = 2 };

/// One arm of a lowered switch terminator.
struct BcSwitchCase {
  int64_t Value = 0;
  int32_t Target = 0; ///< Instruction offset.
  uint16_t Slot = 0;  ///< Arc slot (case index).
};

/// A lowered switch: cases in source order (first match wins, like the
/// walker's linear scan) plus the default arm.
struct BcSwitchTable {
  std::vector<BcSwitchCase> Cases;
  int32_t DefaultTarget = 0;
  uint16_t DefaultSlot = 0;
};

/// One function lowered to bytecode.
struct BcChunk {
  const FunctionDecl *Function = nullptr;
  std::vector<BcInstr> Code;
  /// Register window size needed by any single action/terminator.
  uint16_t NumRegs = 0;
};

/// A whole program lowered to bytecode.
struct BcModule {
  /// Indexed by function id; null for builtins and undefined functions.
  std::vector<std::unique_ptr<BcChunk>> Chunks;
  /// Runs the global-variable initializers (no profile counters).
  BcChunk GlobalInit;

  // Pools referenced by instruction Ptr operands. Deques: pointers must
  // stay stable while the module grows.
  std::deque<std::string> Messages;
  std::deque<BcSwitchTable> SwitchTables;

  /// Total instructions across all chunks (telemetry).
  uint64_t NumInstrs = 0;
  /// Wall time spent lowering (telemetry).
  double CompileMs = 0.0;

  const BcChunk *chunkFor(const FunctionDecl *F) const;
};

} // namespace sest::bc

#endif // INTERP_BYTECODE_BYTECODE_H
