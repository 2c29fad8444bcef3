//===- backend/Native.h - Native artifacts & execution ----------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host side of the native tier: probe the host C compiler, drive it
/// over the CBackend's emitted source (one translation unit, or one
/// shard per core compiled at once and linked), dlopen the shared
/// object, and run it under the RunResult contract. Loaded artifacts are
/// memoized process-wide by generated source (program + layout plan,
/// since both are compiled in), so the suite pool and the sestd cache
/// tier share one compile per (program, plan). The memo holds artifacts
/// weakly, plus the most recently used one: an object unloads once
/// nothing else holds it.
///
//===----------------------------------------------------------------------===//

#ifndef BACKEND_NATIVE_H
#define BACKEND_NATIVE_H

#include "backend/Backend.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sest::backend {

/// Flat-array addressing for the counters the emitted code increments:
/// one dense double array for block counts and one for arc counts,
/// offsets resolved at emission time and re-used by the host decoder.
/// Must be computed identically on both sides (same Cfgs traversal).
struct ProfileShape {
  /// Per function id: base offset into the flat block array (-1 when the
  /// function has no CFG).
  std::vector<int64_t> BlockBase;
  /// Per function id, per block id: base offset into the flat arc array.
  std::vector<std::vector<int64_t>> ArcBase;
  /// Per function id, per block id: successor block ids (arc slots).
  std::vector<std::vector<std::vector<uint32_t>>> Succs;
  int64_t TotalBlocks = 0;
  int64_t TotalArcs = 0;
};

ProfileShape computeProfileShape(const TranslationUnit &Unit,
                                 const CfgModule &Cfgs);

/// A compiled-and-loaded native program. The build directory is gone
/// once the shared object is loaded; destruction dlcloses it. Runs are
/// thread-safe (all run state lives in the callee).
class NativeArtifact {
public:
  ~NativeArtifact();
  NativeArtifact(const NativeArtifact &) = delete;
  NativeArtifact &operator=(const NativeArtifact &) = delete;

  /// FNV-1a (hex) of the generated source this artifact was built from:
  /// an identifier for logs and traces, not the memo key.
  const std::string &sourceHash() const { return SourceHash; }
  /// Size of the generated C source in bytes (observability).
  size_t sourceBytes() const { return SourceBytes; }
  /// Wall time spent in emission + host cc + dlopen.
  double compileMs() const { return CompileMs; }
  /// User + system CPU time of the host compiler and linker processes.
  double compileCpuMs() const { return CompileCpuMs; }
  /// Translation units compiled: 1, or the shards linked into one object.
  unsigned compileShards() const { return CompileShards; }

  /// Executes one input. \p Unit / \p Cfgs must be the program the
  /// artifact was compiled from (the caller's contract; the decoder
  /// shapes the profile from them).
  RunResult run(const TranslationUnit &Unit, const CfgModule &Cfgs,
                const ProgramInput &Input, const InterpOptions &Options) const;

private:
  friend class CBackend;
  NativeArtifact() = default;

  void *Handle = nullptr;
  void *RunFn = nullptr;
  void *FreeFn = nullptr;
  std::string SourceHash;
  size_t SourceBytes = 0;
  double CompileMs = 0.0;
  double CompileCpuMs = 0.0;
  unsigned CompileShards = 0;
  ProfileShape Shape;
};

/// True when the native tier can run on this host; \p Why (optional)
/// receives the capability diagnostic otherwise.
bool nativeEngineAvailable(std::string *Why = nullptr);

/// Absolute path of the probed host C compiler, or "" when none was
/// found ($CC, then cc / gcc / clang on PATH; probed once per process).
const std::string &hostCompilerPath();

/// Builds the layout plan runProgramNative bakes into an artifact for a
/// run with the given InterpOptions::Layout (classification must match
/// layoutPositions; no cold outlining, since a bare ProgramBlockOrder
/// carries no coldness information).
NativeLayoutPlan planFromOptions(const InterpOptions &Options);

/// One-shot native execution: lower bytecode, emit C, compile (memoized),
/// run. Returns a clean capability-error RunResult when no host compiler
/// exists or the program cannot be lowered.
RunResult runProgramNative(const TranslationUnit &Unit, const CfgModule &Cfgs,
                           const ProgramInput &Input,
                           const InterpOptions &Options);

/// Same, reusing an already-lowered bytecode module (the suite runner's
/// compile-once path).
RunResult runProgramNative(const TranslationUnit &Unit, const CfgModule &Cfgs,
                           const bc::BcModule &Bc, const ProgramInput &Input,
                           const InterpOptions &Options);

} // namespace sest::backend

#endif // BACKEND_NATIVE_H
