//===- backend/Backend.h - Native-code backend abstraction ------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The third execution tier: backends lower a program's compiled bytecode
/// to host-native code and run it under the exact RunResult contract both
/// interpreters honor — bit-identical block/arc/entry/call-site profiles,
/// diagnostics, and limit semantics (see docs/PERFORMANCE.md).
///
/// The abstraction is modeled on bistra's Backend/CBackend split: a
/// Backend turns (TranslationUnit, CfgModule, BcModule, layout plan) into
/// a loaded NativeArtifact; the one concrete backend here (CBackend.h)
/// emits a standalone C translation unit and drives the host C compiler.
///
/// Layout is *baked into the artifact*: blocks are emitted in the plan's
/// order (cold chains outlined into separate C functions), and every arc
/// instruction's fall-through/taken classification is resolved at
/// emission time against that same plan — so an artifact realizes the
/// exact layout the optimizer scored, as real instruction-stream effects.
///
//===----------------------------------------------------------------------===//

#ifndef BACKEND_BACKEND_H
#define BACKEND_BACKEND_H

#include "interp/Interp.h"
#include "interp/bytecode/Bytecode.h"

#include <memory>
#include <string>
#include <vector>

namespace sest::backend {

class NativeArtifact;

/// The block layout an artifact is compiled for. Empty rows (or an empty
/// Order) mean identity — block-id order, the CFG builder's layout.
/// FirstColdPos[fid] is the position of the first outlined cold block in
/// that function's order (== row size when nothing is cold); an empty
/// vector outlines nothing. Mirrors opt::FunctionLayout without a
/// dependency on src/opt (the optimizer converts its ProgramLayout into
/// this shape; see tools/sestc.cpp).
struct NativeLayoutPlan {
  ProgramBlockOrder Order;
  std::vector<uint32_t> FirstColdPos;
};

/// A native-code backend: lowers bytecode to a runnable artifact.
class Backend {
public:
  virtual ~Backend() = default;

  /// Short identifier ("c").
  virtual std::string name() const = 0;

  /// True when this backend can produce artifacts on this host; when it
  /// cannot, \p Why (if non-null) receives the capability diagnostic
  /// (e.g. "no host C compiler found (tried $CC, cc, gcc, clang)").
  virtual bool available(std::string *Why) const = 0;

  /// Emits the standalone source for \p Unit under \p Plan. Returns the
  /// empty string and sets \p Error when the program cannot be lowered.
  virtual std::string emitSource(const TranslationUnit &Unit,
                                 const CfgModule &Cfgs,
                                 const bc::BcModule &Bc,
                                 const NativeLayoutPlan &Plan,
                                 std::string *Error) const = 0;

  /// Lowers, compiles, and loads. Null + \p Error on failure. Artifacts
  /// are memoized process-wide by generated source while anything holds
  /// them (and the most recent one always), so repeated compiles of the
  /// same program + plan are free.
  virtual std::shared_ptr<const NativeArtifact>
  compile(const TranslationUnit &Unit, const CfgModule &Cfgs,
          const bc::BcModule &Bc, const NativeLayoutPlan &Plan,
          std::string *Error) const = 0;
};

/// The process-wide C backend instance.
const Backend &cBackend();

} // namespace sest::backend

#endif // BACKEND_BACKEND_H
