//===- tests/test_backend.cpp - Native backend unit tests ------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the compile-to-C backend: capability probing, byte-
/// deterministic emission, artifact memoization, and layout-true code
/// emission (an artifact compiled for the optimizer's layout must be a
/// different translation unit with identical observable semantics).
/// Emission tests run everywhere; compile/run tests skip cleanly on
/// hosts without a C compiler.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "backend/Backend.h"
#include "backend/CBackend.h"
#include "backend/Native.h"
#include "interp/bytecode/BytecodeCompiler.h"
#include "obs/Parallel.h"
#include "opt/Layout.h"
#include "opt/WeightSource.h"
#include "suite/Suite.h"
#include "suite/SuiteRunner.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <dlfcn.h>
#include <unistd.h>

using namespace sest;

namespace {

/// Compiled program + bytecode for one suite program.
struct Lowered {
  CompiledSuiteProgram C;
  bc::BcModule Bc;
  explicit Lowered(const std::string &Name)
      : C(compileProgramOnly(*findSuiteProgram(Name))),
        Bc(bc::compileBytecode(C.unit(), *C.Cfgs)) {}
};

/// Converts the optimizer's layout into the backend's plan shape (the
/// same conversion tools/sestc.cpp does).
backend::NativeLayoutPlan planFromLayout(const opt::ProgramLayout &PL) {
  backend::NativeLayoutPlan Plan;
  Plan.Order = PL.blockOrder();
  for (const opt::FunctionLayout &F : PL.Functions)
    Plan.FirstColdPos.push_back(F.FirstColdPos);
  return Plan;
}

TEST(Backend, CapabilityProbeIsConsistent) {
  std::string Why;
  bool Available = backend::nativeEngineAvailable(&Why);
  if (Available) {
    EXPECT_FALSE(backend::hostCompilerPath().empty());
    EXPECT_TRUE(Why.empty()) << Why;
  } else {
    EXPECT_TRUE(backend::hostCompilerPath().empty());
    EXPECT_FALSE(Why.empty());
  }
  EXPECT_EQ(backend::cBackend().available(nullptr), Available);
  EXPECT_EQ(backend::cBackend().name(), "c");
}

/// Emission is pure (no host compiler involved): it must be available
/// everywhere and byte-deterministic, and explicitly spelling out the
/// identity layout must emit the same translation unit as the implicit
/// (empty-plan) identity.
TEST(Backend, EmissionIsDeterministic) {
  Lowered L("compress");
  ASSERT_TRUE(L.C.Ok) << L.C.Error;
  std::string Err;
  std::string First = backend::cBackend().emitSource(L.C.unit(), *L.C.Cfgs,
                                                     L.Bc, {}, &Err);
  ASSERT_FALSE(First.empty()) << Err;
  std::string Second = backend::cBackend().emitSource(L.C.unit(), *L.C.Cfgs,
                                                      L.Bc, {}, &Err);
  EXPECT_EQ(First, Second);
  // The artifact entry points the host loader resolves must be present.
  EXPECT_NE(First.find("sest_native_run"), std::string::npos);
  EXPECT_NE(First.find("sest_native_free"), std::string::npos);

  backend::NativeLayoutPlan Identity =
      planFromLayout(opt::identityLayout(L.C.unit(), *L.C.Cfgs));
  std::string Explicit = backend::cBackend().emitSource(
      L.C.unit(), *L.C.Cfgs, L.Bc, Identity, &Err);
  EXPECT_EQ(First, Explicit);
}

/// Shards meet the -Wall -Werror bar the single unit is held to in CI:
/// xlisp (whose indirect calls make rt_call_indirect and every call_N
/// cross units) split four ways, each shard compiled on its own, then
/// linked into one shared object that loads with every symbol resolved.
TEST(Backend, ShardsCompileWarningFreeAndLink) {
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why))
    GTEST_SKIP() << "native tier unavailable: " << Why;
  Lowered L("xlisp");
  ASSERT_TRUE(L.C.Ok) << L.C.Error;
  backend::CSourceParts Parts;
  std::string Err;
  ASSERT_TRUE(backend::CBackend().emitParts(L.C.unit(), *L.C.Cfgs, L.Bc, {},
                                            Parts, &Err))
      << Err;
  EXPECT_EQ(Parts.shards(1), std::vector<std::string>{Parts.singleUnit()});
  std::vector<std::string> Shards = Parts.shards(4);
  ASSERT_EQ(Shards.size(), 4u);
  size_t Bytes = 0;
  for (const std::string &S : Shards) {
    EXPECT_EQ(S.compare(0, Parts.Prelude.size(), Parts.Prelude), 0);
    Bytes += S.size() - Parts.Prelude.size();
  }
  EXPECT_EQ(Bytes + Parts.Prelude.size(), Parts.singleUnit().size());

  char Tmpl[] = "/tmp/sest-shards-XXXXXX";
  ASSERT_NE(::mkdtemp(Tmpl), nullptr);
  std::string Dir = Tmpl;
  const std::string &CC = backend::hostCompilerPath();
  std::string Link = CC + " -shared -o " + Dir + "/lib.so";
  for (size_t I = 0; I < Shards.size(); ++I) {
    std::string Base = Dir + "/shard" + std::to_string(I);
    std::ofstream(Base + ".c") << Shards[I];
    EXPECT_EQ(std::system((CC + " -O1 -Wall -Werror -fPIC -c -o " + Base +
                           ".o " + Base + ".c")
                              .c_str()),
              0)
        << "shard " << I;
    Link += " " + Base + ".o";
  }
  EXPECT_EQ(std::system((Link + " -lm").c_str()), 0);
  void *H = ::dlopen((Dir + "/lib.so").c_str(), RTLD_NOW | RTLD_LOCAL);
  EXPECT_NE(H, nullptr) << ::dlerror();
  if (H) {
    for (const char *Sym :
         {"sest_native_run", "sest_native_free", "sest_native_shape"})
      EXPECT_NE(::dlsym(H, Sym), nullptr) << Sym;
    ::dlclose(H);
  }
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

TEST(Backend, ArtifactsAreMemoizedBySourceHash) {
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why))
    GTEST_SKIP() << "native tier unavailable: " << Why;
  Lowered L("gs");
  ASSERT_TRUE(L.C.Ok) << L.C.Error;
  std::string Err;
  auto A = backend::cBackend().compile(L.C.unit(), *L.C.Cfgs, L.Bc, {}, &Err);
  ASSERT_NE(A, nullptr) << Err;
  auto B = backend::cBackend().compile(L.C.unit(), *L.C.Cfgs, L.Bc, {}, &Err);
  ASSERT_NE(B, nullptr) << Err;
  // Same generated source -> the same loaded artifact, not a recompile.
  EXPECT_EQ(A.get(), B.get());
  EXPECT_FALSE(A->sourceHash().empty());
  EXPECT_GT(A->sourceBytes(), 0u);
  EXPECT_GT(A->compileMs(), 0.0);
  EXPECT_GT(A->compileCpuMs(), 0.0);
  // Outside the pool: one shard per core, at most one per group.
  backend::CSourceParts Parts;
  ASSERT_TRUE(backend::CBackend().emitParts(L.C.unit(), *L.C.Cfgs, L.Bc, {},
                                            Parts, &Err))
      << Err;
  EXPECT_EQ(A->compileShards(), obs::parallelWorkers(0, Parts.Groups.size()));
}

/// The memo holds artifacts weakly, plus the most recent one: an object
/// that nothing else holds unloads once another compile takes its place.
TEST(Backend, ArtifactUnloadsOnceNothingHoldsIt) {
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why))
    GTEST_SKIP() << "native tier unavailable: " << Why;
  auto Compile = [](const std::string &Source) {
    auto C = test::compile(Source);
    bc::BcModule Bc = bc::compileBytecode(C->unit(), *C->Cfgs);
    std::string Err;
    auto A = backend::cBackend().compile(C->unit(), *C->Cfgs, Bc, {}, &Err);
    EXPECT_NE(A, nullptr) << Err;
    return A;
  };
  auto First = Compile("int main() { print_int(1); return 0; }");
  const size_t Loaded = test::loadedNativeObjects();
  auto Second = Compile("int main() { print_int(2); return 0; }");
  EXPECT_EQ(test::loadedNativeObjects(), Loaded + 1);
  First.reset(); // no longer the most recent: nothing holds it
  EXPECT_EQ(test::loadedNativeObjects(), Loaded);
  Second.reset(); // still the most recent
  EXPECT_EQ(test::loadedNativeObjects(), Loaded);
}

/// A compile inside a parallelFor worker stays one unit: the pool
/// already runs a task per core, so shards would only oversubscribe it.
TEST(Backend, CompileInsidePoolWorkerIsOneUnit) {
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why))
    GTEST_SKIP() << "native tier unavailable: " << Why;
  const std::vector<std::string> Names = {"sc", "water"};
  std::vector<unsigned> Units(Names.size(), 0);
  obs::parallelFor(2, Names.size(), [&](size_t I) {
    Lowered L(Names[I]);
    std::string Err;
    auto A =
        backend::cBackend().compile(L.C.unit(), *L.C.Cfgs, L.Bc, {}, &Err);
    Units[I] = A ? A->compileShards() : 0;
  });
  EXPECT_EQ(Units, std::vector<unsigned>(Names.size(), 1u));
}

TEST(Backend, ArtifactRunMatchesAstOracle) {
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why))
    GTEST_SKIP() << "native tier unavailable: " << Why;
  Lowered L("gs");
  ASSERT_TRUE(L.C.Ok) << L.C.Error;
  std::string Err;
  auto Artifact =
      backend::cBackend().compile(L.C.unit(), *L.C.Cfgs, L.Bc, {}, &Err);
  ASSERT_NE(Artifact, nullptr) << Err;
  for (const ProgramInput &Input : L.C.Spec->Inputs) {
    InterpOptions AstOpts;
    AstOpts.Engine = InterpEngine::Ast;
    RunResult A = runProgram(L.C.unit(), *L.C.Cfgs, Input, AstOpts);
    RunResult N = Artifact->run(L.C.unit(), *L.C.Cfgs, Input, {});
    std::string What = "gs/" + Input.Name;
    EXPECT_EQ(A.Ok, N.Ok) << What;
    EXPECT_EQ(A.ExitCode, N.ExitCode) << What;
    EXPECT_EQ(A.Output, N.Output) << What;
    EXPECT_EQ(A.StepsExecuted, N.StepsExecuted) << What;
    EXPECT_EQ(A.TheProfile.TotalCycles, N.TheProfile.TotalCycles) << What;
    ASSERT_TRUE(A.TheProfile.shapeMatches(N.TheProfile)) << What;
    for (size_t F = 0; F < A.TheProfile.Functions.size(); ++F) {
      EXPECT_EQ(A.TheProfile.Functions[F].BlockCounts,
                N.TheProfile.Functions[F].BlockCounts)
          << What << " fn " << F;
      EXPECT_EQ(A.TheProfile.Functions[F].ArcCounts,
                N.TheProfile.Functions[F].ArcCounts)
          << What << " fn " << F;
    }
    EXPECT_EQ(A.TheProfile.CallSiteCounts, N.TheProfile.CallSiteCounts)
        << What;
  }
}

/// Layout-true emission: compiling for a profile-driven layout must
/// produce a *different* translation unit (the layout is real
/// instruction-stream structure, not metadata) whose observable
/// behavior — profile, output, steps — is bit-identical to the identity
/// artifact, and whose reported layout cost matches the layout the plan
/// was built from.
TEST(Backend, LayoutTrueEmissionPreservesSemantics) {
  std::string Why;
  if (!backend::nativeEngineAvailable(&Why))
    GTEST_SKIP() << "native tier unavailable: " << Why;
  const SuiteProgram *P = findSuiteProgram("compress");
  ASSERT_NE(P, nullptr);
  CompiledSuiteProgram C = compileAndProfileProgram(*P);
  ASSERT_TRUE(C.Ok) << C.Error;
  bc::BcModule Bc = bc::compileBytecode(C.unit(), *C.Cfgs);

  opt::ProgramLayout PL = opt::computeBlockLayout(
      C.unit(), *C.Cfgs,
      opt::weightsFromProfile(C.unit(), C.Profiles[0], "profile"));
  bool AnyReordered = false;
  for (const opt::FunctionLayout &F : PL.Functions)
    AnyReordered = AnyReordered || !F.isIdentity();
  ASSERT_TRUE(AnyReordered)
      << "compress layout unexpectedly identity; pick another program";

  std::string Err;
  std::string IdentitySrc = backend::cBackend().emitSource(
      C.unit(), *C.Cfgs, Bc, {}, &Err);
  ASSERT_FALSE(IdentitySrc.empty()) << Err;
  std::string LayoutSrc = backend::cBackend().emitSource(
      C.unit(), *C.Cfgs, Bc, planFromLayout(PL), &Err);
  ASSERT_FALSE(LayoutSrc.empty()) << Err;
  EXPECT_NE(IdentitySrc, LayoutSrc);

  auto Identity =
      backend::cBackend().compile(C.unit(), *C.Cfgs, Bc, {}, &Err);
  ASSERT_NE(Identity, nullptr) << Err;
  auto Layout = backend::cBackend().compile(C.unit(), *C.Cfgs, Bc,
                                            planFromLayout(PL), &Err);
  ASSERT_NE(Layout, nullptr) << Err;
  EXPECT_NE(Identity->sourceHash(), Layout->sourceHash());

  // An artifact scores LayoutCost against the layout *baked into it*
  // (layout is instruction-stream structure there, not an option), so
  // each artifact must reproduce the interpreter's score for that same
  // layout: the identity artifact matches a plain walker run, the
  // layout artifact matches a walker run scored under the plan's order.
  RunResult RId = Identity->run(C.unit(), *C.Cfgs, P->Inputs.front(), {});
  RunResult RLay = Layout->run(C.unit(), *C.Cfgs, P->Inputs.front(), {});
  EXPECT_EQ(RId.Ok, RLay.Ok);
  EXPECT_EQ(RId.Output, RLay.Output);
  EXPECT_EQ(RId.ExitCode, RLay.ExitCode);
  EXPECT_EQ(RId.StepsExecuted, RLay.StepsExecuted);
  EXPECT_EQ(RId.TheProfile.TotalCycles, RLay.TheProfile.TotalCycles);

  ProgramBlockOrder Order = PL.blockOrder();
  InterpOptions AstIdentity, AstLayout;
  AstIdentity.Engine = AstLayout.Engine = InterpEngine::Ast;
  AstLayout.Layout = &Order;
  RunResult WalkId =
      runProgram(C.unit(), *C.Cfgs, P->Inputs.front(), AstIdentity);
  RunResult WalkLay =
      runProgram(C.unit(), *C.Cfgs, P->Inputs.front(), AstLayout);
  EXPECT_EQ(RId.LayoutCost.cost(), WalkId.LayoutCost.cost());
  EXPECT_EQ(RLay.LayoutCost.cost(), WalkLay.LayoutCost.cost());
}

} // namespace
