//===- backend/CBackend.h - Compile-to-C backend ----------------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a program's compiled bytecode to standalone C: one C function
/// per mini-C function, with the VM's dispatch loop replaced by direct
/// control flow (labels + gotos resolved at emission time) and every
/// profile counter compiled to a plain `+= 1` on a flat static-offset
/// array. Semantics are those of the interpreters' runtime
/// (interp/RunState.h) and the VM's dispatch, written again in C — same
/// diagnostics, same tick placement, same limit checks in the same
/// order — so profiles and RunResults are bit-identical to both
/// interpreters (tests/test_bytecode_diff.cpp pins this three ways).
///
/// Block segments are emitted in the layout plan's order, with cold
/// chains outlined into `..._cold` continuation functions; arc
/// fall-through/taken classification is baked in per arc slot against
/// the same plan. The host C compiler then turns the chosen order into
/// real fall-throughs — layout decisions become instruction-stream
/// effects, not just classified costs.
///
/// The source comes in parts so the host compiler can build it as
/// several translation units at once: a prelude that opens every unit
/// (runtime types, inline fast paths, hidden declarations of every
/// cross-unit symbol), then groups — the runtime definitions with the
/// entry points, and one group per function holding its `fn_N`,
/// `fn_N_cold` and `call_N`. The prelude followed by every group is the
/// one self-contained unit emitSource returns.
///
//===----------------------------------------------------------------------===//

#ifndef BACKEND_CBACKEND_H
#define BACKEND_CBACKEND_H

#include "backend/Backend.h"

namespace sest::backend {

/// A program's C source in parts (see the file comment).
struct CSourceParts {
  std::string Prelude;
  std::vector<std::string> Groups;

  /// The one self-contained translation unit: Prelude + every group.
  std::string singleUnit() const;
  /// min(K, Groups.size()) translation units, each Prelude + a
  /// size-balanced subset of the groups (in group order); together they
  /// define every symbol singleUnit() does, once.
  std::vector<std::string> shards(unsigned K) const;
};

class CBackend : public Backend {
public:
  std::string name() const override { return "c"; }
  bool available(std::string *Why) const override;
  std::string emitSource(const TranslationUnit &Unit, const CfgModule &Cfgs,
                         const bc::BcModule &Bc, const NativeLayoutPlan &Plan,
                         std::string *Error) const override;
  /// emitSource's program in parts; false + \p Error when the program
  /// cannot be lowered.
  bool emitParts(const TranslationUnit &Unit, const CfgModule &Cfgs,
                 const bc::BcModule &Bc, const NativeLayoutPlan &Plan,
                 CSourceParts &Out, std::string *Error) const;
  std::shared_ptr<const NativeArtifact>
  compile(const TranslationUnit &Unit, const CfgModule &Cfgs,
          const bc::BcModule &Bc, const NativeLayoutPlan &Plan,
          std::string *Error) const override;
};

} // namespace sest::backend

#endif // BACKEND_CBACKEND_H
