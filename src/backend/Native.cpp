//===- backend/Native.cpp - Host cc driver, dlopen, native runs -----------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
//
// The host side of the native tier: probe for a C compiler, drive it over
// the CBackend's generated source (one translation unit, or shards
// compiled at once and linked into one object), dlopen the shared object,
// verify the ABI handshake, and decode sest_native_result back into the
// RunResult contract. Loaded artifacts are memoized process-wide by
// generated source, held weakly (plus the most recent one); the hook
// registration at the bottom routes runProgram(Engine=Native) here
// without making src/interp depend on this library.
//
//===----------------------------------------------------------------------===//

#include "backend/Native.h"

#include "backend/CBackend.h"
#include "backend/NativeAbi.h"
#include "cfg/Cfg.h"
#include "interp/bytecode/BytecodeCompiler.h"
#include "lang/Ast.h"
#include "lang/Type.h"
#include "obs/Parallel.h"
#include "obs/Telemetry.h"
#include "support/Hash.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace sest;
using namespace sest::backend;

//===----------------------------------------------------------------------===//
// Compiler probe
//===----------------------------------------------------------------------===//

namespace {

bool isExecutable(const std::string &P) {
  return !P.empty() && ::access(P.c_str(), X_OK) == 0;
}

std::string findOnPath(const std::string &Name) {
  if (Name.find('/') != std::string::npos)
    return isExecutable(Name) ? Name : "";
  const char *Path = std::getenv("PATH");
  if (!Path)
    return "";
  std::string S(Path);
  size_t Start = 0;
  while (Start <= S.size()) {
    size_t End = S.find(':', Start);
    if (End == std::string::npos)
      End = S.size();
    std::string Dir = S.substr(Start, End - Start);
    if (!Dir.empty()) {
      std::string Cand = Dir + "/" + Name;
      if (isExecutable(Cand))
        return Cand;
    }
    if (End == S.size())
      break;
    Start = End + 1;
  }
  return "";
}

std::string probeCompiler() {
  if (const char *CC = std::getenv("CC"); CC && *CC) {
    std::string Found = findOnPath(CC);
    if (!Found.empty())
      return Found;
  }
  for (const char *Name : {"cc", "gcc", "clang"}) {
    std::string Found = findOnPath(Name);
    if (!Found.empty())
      return Found;
  }
  return "";
}

/// One host compiler or linker invocation.
struct Command {
  std::vector<std::string> Argv;
  std::string StderrPath;
};

/// Starts every command at once and waits for all of them, adding the
/// children's user + system CPU time to \p CpuMs. posix_spawn with argv
/// built beforehand: the child of a multi-threaded process must not
/// allocate before it execs. True when every command exits 0; otherwise
/// \p Error gets the first failure with its captured stderr.
bool runConcurrently(const std::vector<Command> &Cmds, double &CpuMs,
                     std::string *Error) {
  std::vector<std::vector<char *>> Args(Cmds.size());
  for (size_t I = 0; I < Cmds.size(); ++I) {
    for (const std::string &A : Cmds[I].Argv)
      Args[I].push_back(const_cast<char *>(A.c_str()));
    Args[I].push_back(nullptr);
  }
  std::vector<pid_t> Pids(Cmds.size(), -1);
  std::string Err;
  for (size_t I = 0; I < Cmds.size(); ++I) {
    posix_spawn_file_actions_t Actions;
    ::posix_spawn_file_actions_init(&Actions);
    ::posix_spawn_file_actions_addopen(&Actions, 2,
                                       Cmds[I].StderrPath.c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int Rc = ::posix_spawn(&Pids[I], Args[I][0], &Actions, nullptr,
                           Args[I].data(), environ);
    ::posix_spawn_file_actions_destroy(&Actions);
    if (Rc != 0) {
      Pids[I] = -1;
      Err = "cannot start " + Cmds[I].Argv[0] + ": " + std::strerror(Rc);
      break;
    }
  }
  for (size_t I = 0; I < Cmds.size(); ++I) {
    if (Pids[I] < 0)
      continue;
    int Status = 0;
    rusage Usage{};
    while (::wait4(Pids[I], &Status, 0, &Usage) < 0 && errno == EINTR) {
    }
    CpuMs += (Usage.ru_utime.tv_sec + Usage.ru_stime.tv_sec) * 1e3 +
             (Usage.ru_utime.tv_usec + Usage.ru_stime.tv_usec) / 1e3;
    if (!Err.empty() || (WIFEXITED(Status) && WEXITSTATUS(Status) == 0))
      continue;
    std::ifstream In(Cmds[I].StderrPath);
    std::stringstream SS;
    SS << In.rdbuf();
    std::string Diag = SS.str();
    if (Diag.size() > 4000)
      Diag.resize(4000);
    Err = Cmds[I].Argv[0] + " failed";
    if (WIFEXITED(Status))
      Err += " (exit " + std::to_string(WEXITSTATUS(Status)) + ")";
    if (!Diag.empty())
      Err += ":\n" + Diag;
  }
  if (Err.empty())
    return true;
  if (Error)
    *Error = Err;
  return false;
}

/// Compiles \p Units (one self-contained unit, or shards) into a shared
/// object and dlopens it. The build directory is removed before this
/// returns, on every path: a loaded object survives its unlink.
void *buildAndLoad(const std::vector<std::string> &Units, double &CpuMs,
                   std::string *Error) {
  char Tmpl[] = "/tmp/sest-native-XXXXXX";
  if (!::mkdtemp(Tmpl)) {
    if (Error)
      *Error = "cannot create temp dir under /tmp: " +
               std::string(std::strerror(errno));
    return nullptr;
  }
  struct RemoveDir {
    std::string Path;
    ~RemoveDir() {
      std::error_code EC;
      std::filesystem::remove_all(Path, EC);
    }
  } Dir{Tmpl};

  // -fwrapv: the VM's int64 arithmetic wraps; make the C side match.
  // -lm: the sqrt builtin — don't rely on the host process having libm.
  // -O1: -O2 runs the suite's programs 5-15% faster but takes about
  // 1.7x the compiler CPU, which the break-even curve pays up front.
  // One unit compiles and links in one step; shards compile at once,
  // then link.
  const std::string &CC = hostCompilerPath();
  const bool One = Units.size() == 1;
  std::string SoPath = Dir.Path + "/lib.so";
  std::vector<Command> Compiles;
  std::vector<std::string> Link = {CC, "-shared", "-o", SoPath};
  for (size_t I = 0; I < Units.size(); ++I) {
    std::string Base = Dir.Path + "/gen" + std::to_string(I);
    {
      std::ofstream OutF(Base + ".c", std::ios::binary);
      OutF << Units[I];
      if (!OutF) {
        if (Error)
          *Error = "cannot write " + Base + ".c";
        return nullptr;
      }
    }
    std::vector<std::string> Argv = {CC, "-O1", "-fPIC", "-fwrapv"};
    if (One)
      Argv.insert(Argv.end(), {"-shared", "-o", SoPath, Base + ".c", "-lm"});
    else
      Argv.insert(Argv.end(), {"-c", "-o", Base + ".o", Base + ".c"});
    Compiles.push_back({std::move(Argv), Base + ".stderr"});
    Link.push_back(Base + ".o");
  }
  Link.push_back("-lm");
  if (!runConcurrently(Compiles, CpuMs, Error) ||
      (!One &&
       !runConcurrently({{Link, Dir.Path + "/link.stderr"}}, CpuMs, Error)))
    return nullptr;

  void *H = ::dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!H && Error) {
    const char *D = ::dlerror();
    *Error = std::string("dlopen failed: ") + (D ? D : "unknown error");
  }
  return H;
}

} // namespace

const std::string &sest::backend::hostCompilerPath() {
  static const std::string Path = probeCompiler();
  return Path;
}

bool sest::backend::nativeEngineAvailable(std::string *Why) {
  if (!hostCompilerPath().empty())
    return true;
  if (Why)
    *Why = "no host C compiler found (tried $CC, cc, gcc, clang)";
  return false;
}

bool CBackend::available(std::string *Why) const {
  return nativeEngineAvailable(Why);
}

//===----------------------------------------------------------------------===//
// Artifact lifecycle
//===----------------------------------------------------------------------===//

NativeArtifact::~NativeArtifact() {
  if (Handle)
    ::dlclose(Handle);
}

namespace {

/// Loaded artifacts by generated source, byte for byte. The memo holds
/// them weakly, so an object unloads once its last holder (a cache
/// entry, a suite program, a run) lets go; it also holds the most recent
/// one, so back-to-back runProgram(Engine=Native) calls on one program
/// compile it once. Expired slots are swept on the next insert.
struct ArtifactMemo {
  struct BySourceHash {
    size_t operator()(const std::string &S) const { return wordHash64(S); }
  };
  std::mutex Mu;
  std::unordered_map<std::string, std::weak_ptr<const NativeArtifact>,
                     BySourceHash>
      Loaded;
  std::shared_ptr<const NativeArtifact> Recent;

  /// The live artifact for \p Source (now the most recent), or null.
  std::shared_ptr<const NativeArtifact> find(const std::string &Source) {
    std::shared_ptr<const NativeArtifact> Hit, Previous;
    std::lock_guard<std::mutex> L(Mu);
    if (auto It = Loaded.find(Source); It != Loaded.end())
      Hit = It->second.lock();
    if (Hit)
      Previous = std::exchange(Recent, Hit);
    return Hit; // Previous unloads, if it must, after the lock
  }

  /// Records \p A for \p Source unless a live artifact raced it in;
  /// returns whichever is now memoized.
  std::shared_ptr<const NativeArtifact>
  insert(std::string Source, std::shared_ptr<const NativeArtifact> A) {
    std::shared_ptr<const NativeArtifact> Previous, Duplicate;
    std::lock_guard<std::mutex> L(Mu);
    std::erase_if(Loaded, [](const auto &KV) { return KV.second.expired(); });
    auto [It, Inserted] = Loaded.try_emplace(std::move(Source), A);
    if (!Inserted) // not expired: just swept
      Duplicate = std::exchange(A, It->second.lock());
    Previous = std::exchange(Recent, A);
    return A; // Previous and Duplicate unload after the lock
  }
};

ArtifactMemo &artifactMemo() {
  static ArtifactMemo M;
  return M;
}

} // namespace

std::shared_ptr<const NativeArtifact>
CBackend::compile(const TranslationUnit &Unit, const CfgModule &Cfgs,
                  const bc::BcModule &Bc, const NativeLayoutPlan &Plan,
                  std::string *Error) const {
  auto T0 = std::chrono::steady_clock::now();
  CSourceParts Parts;
  if (!emitParts(Unit, Cfgs, Bc, Plan, Parts, Error))
    return nullptr;
  // The memo key is the one-unit source, whatever the shard count.
  std::string Source = Parts.singleUnit();
  if (auto Hit = artifactMemo().find(Source))
    return Hit;
  std::string Hash = hashHex(contentHash64(Source));
  size_t SourceBytes = Source.size();

  std::string Why;
  if (!nativeEngineAvailable(&Why)) {
    if (Error)
      *Error = Why;
    return nullptr;
  }

  obs::ScopedPhase Phase("native.compile", Hash);
  // One compiler per core, by parallelFor's worker rule: a compile inside
  // a pool worker, or on one core, stays one unit. The rule does not see
  // other callers, so two compiles started outside the pool at once each
  // start one compiler per core.
  std::vector<std::string> Units =
      Parts.shards(obs::parallelWorkers(0, Parts.Groups.size()));
  double CpuMs = 0.0;
  void *H = buildAndLoad(Units, CpuMs, Error);
  if (!H)
    return nullptr;
  void *RunSym = ::dlsym(H, "sest_native_run");
  void *FreeSym = ::dlsym(H, "sest_native_free");
  void *ShapeSym = ::dlsym(H, "sest_native_shape");
  ProfileShape Shape = computeProfileShape(Unit, Cfgs);
  bool ShapeOk = false;
  if (ShapeSym) {
    const auto *S = static_cast<const unsigned long long *>(ShapeSym);
    ShapeOk = S[0] == kSestNativeAbiVersion &&
              S[1] == Unit.Functions.size() &&
              S[2] == static_cast<unsigned long long>(Shape.TotalBlocks) &&
              S[3] == static_cast<unsigned long long>(Shape.TotalArcs) &&
              S[4] == Unit.NumCallSites;
  }
  if (!RunSym || !FreeSym || !ShapeOk) {
    if (Error)
      *Error = "artifact rejected: ABI/shape handshake mismatch";
    ::dlclose(H);
    return nullptr;
  }

  std::shared_ptr<NativeArtifact> A(new NativeArtifact());
  A->Handle = H;
  A->RunFn = RunSym;
  A->FreeFn = FreeSym;
  A->SourceHash = Hash;
  A->SourceBytes = SourceBytes;
  A->CompileMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - T0)
                     .count();
  A->CompileCpuMs = CpuMs;
  A->CompileShards = static_cast<unsigned>(Units.size());
  A->Shape = std::move(Shape);

  if (obs::telemetryActive()) {
    obs::counterAdd("native.compiles");
    obs::counterAdd("native.compile_ms", A->CompileMs);
    obs::counterAdd("native.compile_cpu_ms", A->CompileCpuMs);
    obs::counterAdd("native.compile_shards", A->CompileShards);
    obs::counterAdd("native.source_bytes",
                    static_cast<double>(A->SourceBytes));
  }

  return artifactMemo().insert(std::move(Source), std::move(A));
}

//===----------------------------------------------------------------------===//
// Execution + RunResult decode
//===----------------------------------------------------------------------===//

RunResult NativeArtifact::run(const TranslationUnit &Unit,
                              const CfgModule &Cfgs,
                              const ProgramInput &Input,
                              const InterpOptions &Options) const {
  obs::ScopedPhase Phase("native.run", Input.Name);

  std::vector<double> Factors(Unit.Functions.size(), 1.0);
  for (const FunctionDecl *F : Unit.Functions)
    if (Options.OptimizedFunctions.count(F))
      Factors[F->functionId()] = Options.OptimizedCostFactor;
  if (Factors.empty())
    Factors.push_back(1.0);

  sest_native_params P{};
  P.input = Input.Text.c_str();
  P.input_len = Input.Text.size();
  P.rand_seed = Input.RandSeed;
  P.max_steps = Options.MaxSteps;
  P.max_call_depth = Options.MaxCallDepth;
  P.max_host_stack_bytes = Options.MaxHostStackBytes;
  P.max_heap_cells = Options.MaxHeapCells;
  P.cost_factor = Factors.data();

  sest_native_result Res{};
  auto RunF = reinterpret_cast<sest_native_run_fn>(RunFn);
  auto FreeF = reinterpret_cast<sest_native_free_fn>(FreeFn);

  RunResult R;
  if (RunF(&P, &Res) != 0) {
    R.Error = "native run failed to start (out of memory)";
    return R;
  }

  R.Ok = Res.ok != 0;
  R.Error.assign(Res.error, Res.error_len);
  R.LimitHit = static_cast<RunLimit>(Res.limit);
  R.ExitCode = Res.exit_code;
  R.Output.assign(Res.output, Res.output_len);
  R.StepsExecuted = Res.steps;
  R.HeapCellsHighWater = Res.heap_hw;
  R.CallDepthHighWater = Res.call_depth_hw;
  R.LayoutCost.FallThrough = Res.lc_fall;
  R.LayoutCost.Taken = Res.lc_taken;
  R.LayoutCost.Calls = Res.lc_calls;
  R.LayoutCost.Returns = Res.lc_rets;

  Profile &Prof = R.TheProfile;
  Prof.ProgramName = Unit.Functions.empty() ? "" : "program";
  Prof.InputName = Input.Name;
  Prof.TotalCycles = Res.cycles;
  Prof.Functions.resize(Unit.Functions.size());
  for (size_t Fid = 0; Fid < Unit.Functions.size(); ++Fid)
    Prof.Functions[Fid].EntryCount = Res.entries[Fid];
  for (const auto &[F, G] : Cfgs.all()) {
    uint32_t Fid = F->functionId();
    FunctionProfile &FP = Prof.Functions[Fid];
    int64_t BBase = Shape.BlockBase[Fid];
    FP.BlockCounts.assign(G->size(), 0.0);
    FP.ArcCounts.resize(G->size());
    for (const auto &B : G->blocks()) {
      FP.BlockCounts[B->id()] = Res.blocks[BBase + B->id()];
      auto &Row = FP.ArcCounts[B->id()];
      Row.assign(B->successors().size(), 0.0);
      int64_t ABase = Shape.ArcBase[Fid][B->id()];
      for (size_t S = 0; S < Row.size(); ++S)
        Row[S] = Res.arcs[ABase + static_cast<int64_t>(S)];
    }
  }
  Prof.CallSiteCounts.assign(Unit.NumCallSites, 0.0);
  for (uint32_t CS = 0; CS < Unit.NumCallSites; ++CS)
    Prof.CallSiteCounts[CS] = Res.callsites[CS];

  // Mirror RunState::flushTelemetry (without the VM's instr counter).
  if (obs::telemetryActive()) {
    obs::counterAdd("interp.runs");
    obs::counterAdd("interp.steps.executed",
                    static_cast<double>(Res.steps));
    obs::gaugeMax("interp.heap_cells.high_water",
                  static_cast<double>(Res.heap_hw));
    obs::gaugeMax("interp.call_depth.high_water",
                  static_cast<double>(Res.call_depth_hw));
    if (R.LimitHit != RunLimit::None)
      obs::counterAdd(std::string("interp.limit_hit.") +
                      runLimitName(R.LimitHit));
    obs::counterAdd("interp.layout.fall_through",
                    static_cast<double>(Res.lc_fall));
    obs::counterAdd("interp.layout.taken",
                    static_cast<double>(Res.lc_taken));
    obs::counterAdd("interp.layout.calls",
                    static_cast<double>(Res.lc_calls));
    obs::counterAdd("interp.layout.returns",
                    static_cast<double>(Res.lc_rets));
    for (size_t Fid = 0; Fid < Unit.Functions.size(); ++Fid)
      if (Res.self_steps[Fid])
        obs::counterAdd("interp.fn_self_steps." +
                            Unit.Functions[Fid]->name(),
                        static_cast<double>(Res.self_steps[Fid]));
  }

  FreeF(&Res);
  return R;
}

//===----------------------------------------------------------------------===//
// One-shot entry points + engine hook
//===----------------------------------------------------------------------===//

NativeLayoutPlan sest::backend::planFromOptions(const InterpOptions &Options) {
  NativeLayoutPlan Plan;
  if (Options.Layout)
    Plan.Order = *Options.Layout;
  return Plan;
}

RunResult sest::backend::runProgramNative(const TranslationUnit &Unit,
                                          const CfgModule &Cfgs,
                                          const bc::BcModule &Bc,
                                          const ProgramInput &Input,
                                          const InterpOptions &Options) {
  std::string Why;
  if (!nativeEngineAvailable(&Why)) {
    RunResult R;
    R.Error = "native backend unavailable: " + Why;
    return R;
  }
  // The VM's canned main-check results (fresh RunResult, Error only).
  const FunctionDecl *Main = Unit.findFunction("main");
  if (!Main || !Main->isDefined()) {
    RunResult R;
    R.Error = "program has no main function";
    return R;
  }
  if (!Main->params().empty()) {
    RunResult R;
    R.Error = "main must take no parameters";
    return R;
  }
  std::string Err;
  auto Artifact =
      cBackend().compile(Unit, Cfgs, Bc, planFromOptions(Options), &Err);
  if (!Artifact) {
    RunResult R;
    R.Error = "native compile failed: " + Err;
    return R;
  }
  return Artifact->run(Unit, Cfgs, Input, Options);
}

RunResult sest::backend::runProgramNative(const TranslationUnit &Unit,
                                          const CfgModule &Cfgs,
                                          const ProgramInput &Input,
                                          const InterpOptions &Options) {
  bc::BcModule Module = bc::compileBytecode(Unit, Cfgs);
  return runProgramNative(Unit, Cfgs, Module, Input, Options);
}

namespace {

/// Routes runProgram(Engine=Native) to this library without a link-time
/// dependency from src/interp on src/backend. Registered when any
/// backend symbol is linked in (every native-capable binary references
/// at least nativeEngineAvailable).
struct NativeHookRegistrar {
  NativeHookRegistrar() {
    setNativeRunHook(+[](const TranslationUnit &Unit, const CfgModule &Cfgs,
                         const ProgramInput &Input,
                         const InterpOptions &Options) {
      return runProgramNative(Unit, Cfgs, Input, Options);
    });
  }
} RegisterNativeHook;

} // namespace
