//===- interp/bytecode/BytecodeVM.h - Bytecode executor ---------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a BcModule with a tight dispatch loop (computed goto on
/// GCC/Clang, dense switch elsewhere). Produces bit-identical RunResults
/// — profiles, diagnostics, limit/high-water semantics — to the
/// tree-walking Interpreter in interp/Interp.cpp (InterpEngine::Ast).
/// Both run on one runtime, interp/RunState.h, so the walker checks the
/// VM's lowering — control flow, evaluation order and step accounting —
/// while the native tier's C runtime, through the RuntimeDiff and
/// BinOpDiff tests, checks the shared semantics.
///
//===----------------------------------------------------------------------===//

#ifndef INTERP_BYTECODE_BYTECODEVM_H
#define INTERP_BYTECODE_BYTECODEVM_H

#include "interp/Interp.h"
#include "interp/bytecode/Bytecode.h"

namespace sest::bc {

/// Runs a precompiled \p Module. The module is read-only here, so
/// callers may execute many inputs concurrently against one module
/// (each run on its own thread with its own VM state).
RunResult runProgramBytecode(const TranslationUnit &Unit,
                             const CfgModule &Cfgs, const BcModule &Module,
                             const ProgramInput &Input,
                             const InterpOptions &Options);

} // namespace sest::bc

#endif // INTERP_BYTECODE_BYTECODEVM_H
