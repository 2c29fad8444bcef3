//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the unit and integration tests: compile a mini-C
/// source to an analyzed AST + CFGs, and run it collecting a profile.
///
//===----------------------------------------------------------------------===//

#ifndef TESTS_TESTUTIL_H
#define TESTS_TESTUTIL_H

#include "cfg/Cfg.h"
#include "interp/Interp.h"
#include "lang/Parser.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include <link.h>

namespace sest::test {

/// A fully compiled mini-C program.
struct Compiled {
  std::unique_ptr<AstContext> Ctx;
  std::unique_ptr<CfgModule> Cfgs;
  DiagnosticEngine Diags;

  TranslationUnit &unit() { return Ctx->unit(); }
  const FunctionDecl *fn(const std::string &Name) const {
    return Ctx->unit().findFunction(Name);
  }
  const Cfg *cfg(const std::string &Name) const {
    const FunctionDecl *F = Ctx->unit().findFunction(Name);
    return F ? Cfgs->cfg(F) : nullptr;
  }
};

/// Compiles \p Source; fails the current test (and returns nullptr) on
/// diagnostics.
inline std::unique_ptr<Compiled> compile(const std::string &Source) {
  auto C = std::make_unique<Compiled>();
  C->Ctx = std::make_unique<AstContext>();
  if (!parseAndAnalyze(Source, *C->Ctx, C->Diags)) {
    ADD_FAILURE() << "compilation failed:\n" << C->Diags.str();
    return nullptr;
  }
  C->Cfgs = std::make_unique<CfgModule>(
      CfgModule::build(C->Ctx->unit(), C->Diags));
  if (C->Diags.hasErrors()) {
    ADD_FAILURE() << "CFG construction failed:\n" << C->Diags.str();
    return nullptr;
  }
  return C;
}

/// Compiles \p Source expecting failure; returns the diagnostics text.
inline std::string compileExpectError(const std::string &Source) {
  AstContext Ctx;
  DiagnosticEngine Diags;
  bool Ok = parseAndAnalyze(Source, Ctx, Diags);
  EXPECT_FALSE(Ok) << "expected compilation to fail";
  return Diags.str();
}

/// Runs a compiled program; fails the test on runtime errors.
inline RunResult run(Compiled &C, const std::string &InputText = "",
                     uint64_t Seed = 1) {
  ProgramInput In;
  In.Text = InputText;
  In.RandSeed = Seed;
  RunResult R = runProgram(C.unit(), *C.Cfgs, In);
  EXPECT_TRUE(R.Ok) << "runtime error: " << R.Error;
  return R;
}

/// Compile + run in one step.
inline RunResult compileAndRun(const std::string &Source,
                               const std::string &InputText = "",
                               uint64_t Seed = 1) {
  auto C = compile(Source);
  if (!C)
    return {};
  return run(*C, InputText, Seed);
}

/// Shared objects the native tier has loaded and not yet unloaded (each
/// is a lib.so under a /tmp/sest-native-* build directory).
inline size_t loadedNativeObjects() {
  size_t N = 0;
  ::dl_iterate_phdr(
      [](dl_phdr_info *Info, size_t, void *Count) {
        if (Info->dlpi_name && std::strstr(Info->dlpi_name, "sest-native"))
          ++*static_cast<size_t *>(Count);
        return 0;
      },
      &N);
  return N;
}

} // namespace sest::test

#endif // TESTS_TESTUTIL_H
