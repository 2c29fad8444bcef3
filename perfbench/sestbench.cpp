//===- perfbench/sestbench.cpp - Repository benchmark harness -------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring half of the repository benchmark (perfbench/run.py
/// builds and runs it). Every subcommand prints one JSON object on stdout:
///
///   sestd  --workload W --seed N --seconds S --trace 0|1 --sestd PATH
///          --refs DIR
///       Spawns the real sestd binary over stdin/stdout, primes it, then
///       measures latency with an open-loop client and saturation
///       throughput with a pipelined client. With --trace 1 it also
///       replays the stream in-process through Service::handleBatch (as
///       served, and from a cold cache with a capped budget for the miss
///       path) and times each layer's public functions on the workload's
///       programs (no spans inside src/).
///   suite-pass --seed N --refs DIR [--probe]
///       One pass of the offline compiler path over the 14-program suite
///       in this (fresh) process: profile on the bytecode VM, estimate
///       and score, opt report, tune, and the native tier for compress,
///       xlisp and alvinn. --probe stops once the suite is loaded.
///   suite-layers --seed N
///       The suite's per-layer decomposition (a fresh process, so the
///       process-wide native artifact memo starts empty).
///   suite-refs --seed N --refs DIR
///       Computes the suite's references ahead of the timed passes.
///
/// Every response and result is checked against a reference computed by
/// an independent path (an uncached Service, the AST walker) and cached
/// under --refs.
///
//===----------------------------------------------------------------------===//

#include "backend/Backend.h"
#include "backend/Native.h"
#include "callgraph/CallGraph.h"
#include "cfg/Cfg.h"
#include "estimators/BranchPrediction.h"
#include "estimators/Pipeline.h"
#include "interp/Interp.h"
#include "interp/bytecode/BytecodeCompiler.h"
#include "interp/bytecode/BytecodeVM.h"
#include "lang/Parser.h"
#include "metrics/Evaluation.h"
#include "obs/Accuracy.h"
#include "opt/Inline.h"
#include "opt/Layout.h"
#include "opt/OptReport.h"
#include "opt/Pass.h"
#include "opt/WeightSource.h"
#include "service/Service.h"
#include "suite/Suite.h"
#include "suite/SuiteRunner.h"
#include "suite/Synthetic.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Prng.h"
#include "tune/Tune.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace sest;

namespace {

using Clock = std::chrono::steady_clock;

double toSeconds(Clock::time_point T) {
  return std::chrono::duration<double>(T.time_since_epoch()).count();
}
double usBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "sestbench: %s\n", Message.c_str());
  std::exit(1);
}

/// Linear-interpolated quantile (the same rule as numpy's default).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

/// FNV-1a, deliberately not the project's own content hash: reference
/// digests must not depend on the code under test.
uint64_t digest(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// Counts the clock reads the wrappers below make, so the traced run can
/// report what its own timing cost (bench.trace_overhead_frac).
std::atomic<uint64_t> ClockReads{0};
Clock::time_point tick() {
  ClockReads.fetch_add(1, std::memory_order_relaxed);
  return Clock::now();
}

/// Runs \p Fn and adds its wall time in microseconds to \p SumUs.
template <typename Fn> auto timed(double &SumUs, Fn &&F) {
  Clock::time_point A = tick();
  if constexpr (std::is_void_v<decltype(F())>) {
    F();
    SumUs += usBetween(A, tick());
  } else {
    auto R = F();
    SumUs += usBetween(A, tick());
    return R;
  }
}

/// Cost of one steady_clock read, in microseconds.
double clockReadUs() {
  constexpr int N = 200000;
  Clock::time_point A = Clock::now();
  Clock::time_point Last = A;
  for (int I = 0; I < N; ++I)
    Last = Clock::now();
  return usBetween(A, Last) / N;
}

struct Args {
  std::map<std::string, std::string> KV;
  std::vector<std::string> Flags;

  Args(int Argc, char **Argv) {
    for (int I = 2; I < Argc; ++I) {
      std::string A = Argv[I];
      if (A.rfind("--", 0) != 0)
        die("unexpected argument '" + A + "'");
      if (I + 1 < Argc && std::string(Argv[I + 1]).rfind("--", 0) != 0)
        KV[A] = Argv[++I];
      else
        Flags.push_back(A);
    }
  }
  std::string str(const std::string &K, const std::string &Def = "") const {
    auto It = KV.find(K);
    return It == KV.end() ? Def : It->second;
  }
  double num(const std::string &K, double Def) const {
    auto It = KV.find(K);
    return It == KV.end() ? Def : std::strtod(It->second.c_str(), nullptr);
  }
  bool flag(const std::string &K) const {
    return std::find(Flags.begin(), Flags.end(), K) != Flags.end();
  }
};

std::string readFile(const std::string &Path) {
  std::ifstream F(Path, std::ios::binary);
  std::stringstream SS;
  SS << F.rdbuf();
  return SS.str();
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream F(Tmp, std::ios::binary);
    F << Text;
    if (!F)
      die("cannot write " + Tmp);
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0)
    die("cannot rename " + Tmp);
}

/// A digest table cached on disk: one "key digest" pair per line.
std::map<std::string, uint64_t> loadDigests(const std::string &Path) {
  std::map<std::string, uint64_t> Out;
  std::istringstream In(readFile(Path));
  std::string Key, Hex;
  while (In >> Key >> Hex)
    Out[Key] = std::strtoull(Hex.c_str(), nullptr, 16);
  return Out;
}

void saveDigests(const std::string &Path,
                 const std::map<std::string, uint64_t> &Table) {
  std::string Text;
  char Buf[32];
  for (const auto &[K, V] : Table) {
    std::snprintf(Buf, sizeof(Buf), "%016llx",
                  static_cast<unsigned long long>(V));
    Text += K + " " + Buf + "\n";
  }
  writeFile(Path, Text);
}

//===----------------------------------------------------------------------===//
// Workloads
//
// The request model follows bench/BenchCommon.h's RequestStream (zipfian
// program popularity crossed with the estimate 55 / parse 20 / optimize
// 15 / report 10 mix and four variants per op), but lives here so that
// edits to the paper benches never move this benchmark's workload.
//===----------------------------------------------------------------------===//

constexpr const char *Ops[] = {"estimate", "parse", "optimize", "report"};
constexpr unsigned OpWeights[] = {55, 20, 15, 10};
constexpr size_t NumOps = 4;
constexpr unsigned NumVariants = 4;

struct SestdSpec {
  std::string Name;
  double RatePerS = 0.0;    ///< Open-loop rate of the latency phase.
  size_t LayerSample = 48;  ///< Programs timed per layer when traced.
  int SetupRuns = 3;        ///< Set-ups measured; the median is reported.
  size_t MissRequests = 0;  ///< Length of the traced miss replay.
};

/// Cache budget of the traced miss replay. Split over seven tiers of 16
/// shards, it admits every AST of both workloads, and it holds two
/// thirds of the AST tier that priming sestd_warm's pool fills.
constexpr size_t MissBudgetBytes = 16u << 20;

/// Fixed per-workload parameters. The open-loop rate is about a sixth of
/// sestd_warm's saturation throughput on the commit that introduced this
/// benchmark (4-core Xeon VM, gcc 12, Release): at a third, queueing
/// amplified the machine's own speed swings and the percentiles did not
/// repeat. It must stay fixed so that later commits are compared at the
/// same offered load. suite_service is the short session the suite's traced run uses for the service-side layers.
SestdSpec specFor(const std::string &Name) {
  SestdSpec S;
  S.Name = Name;
  if (Name == "sestd_warm") {
    S.RatePerS = 2000;
    S.SetupRuns = 7;
    S.MissRequests = 6000;
  } else if (Name == "suite_service") {
    S.RatePerS = 2000;
    S.LayerSample = 0;
    S.MissRequests = 1500;
  } else {
    die("unknown sestd workload '" + Name + "'");
  }
  return S;
}

struct Workload {
  SestdSpec Spec;
  uint64_t Seed = 1;
  std::vector<SuiteProgram> Programs;
  /// Distinct request objects without an id, index (P*NumOps+Op)*4+V.
  std::vector<std::string> Bodies;

  const std::string &sourceOf(uint32_t Line) const {
    return Programs[Line / (NumOps * NumVariants)].Source;
  }
  const char *opOf(uint32_t Line) const {
    return Ops[(Line / NumVariants) % NumOps];
  }
  std::string line(uint32_t Line, uint64_t Id) const {
    return "{\"id\":" + std::to_string(Id) + "," + Bodies[Line].substr(1);
  }
};

std::string renderBody(const SuiteProgram &P, size_t Op, unsigned Variant) {
  JsonWriter W;
  W.beginObject();
  W.member("op", Ops[Op]);
  W.member("source", P.Source);
  std::string_view OpName = Ops[Op];
  if (OpName == "estimate") {
    if (Variant == 1) {
      W.key("options").beginObject();
      W.member("intra", "markov").member("inter", "markov");
      W.endObject();
    } else if (Variant == 2) {
      W.key("options").beginObject();
      W.member("loop_iterations", static_cast<uint64_t>(16));
      W.endObject();
    } else if (Variant == 3) {
      W.member("blocks", true);
    }
  } else if (OpName == "optimize") {
    static const char *Passes[] = {"all", "layout", "inline", "all"};
    W.member("passes", Passes[Variant]);
    if (Variant == 3) {
      W.key("options").beginObject();
      W.member("taken_probability", 0.8);
      W.endObject();
    }
  } else if (OpName == "report") {
    W.member("input", P.Inputs.empty() ? std::string() : P.Inputs[0].Text);
    W.member("seed", static_cast<uint64_t>(1 + Variant));
  }
  W.endObject();
  return W.take();
}

/// The program pools are the same for every seed; the seed draws the
/// request stream. Runs with different seeds are then different samples
/// of one workload, not different workloads.
constexpr uint64_t PoolSeed = 1;

Workload makeWorkload(const std::string &Name, uint64_t Seed) {
  Workload W;
  W.Spec = specFor(Name);
  W.Seed = Seed;
  if (Name == "suite_service") {
    W.Programs = benchmarkSuite();
  } else {
    constexpr size_t Pool = 48;
    static const SyntheticShape Shapes[] = {
        SyntheticShape::LoopNest, SyntheticShape::SwitchDispatch,
        SyntheticShape::GotoCycles, SyntheticShape::WideCalls,
        SyntheticShape::Mixed};
    for (size_t I = 0; I < Pool; ++I) {
      SyntheticConfig SC;
      SC.Shape = Shapes[I % 5];
      SC.TargetBlocks = 80;
      SC.Seed = PoolSeed + I;
      W.Programs.push_back(makeSyntheticProgram(SC));
    }
  }
  for (const SuiteProgram &P : W.Programs)
    for (size_t Op = 0; Op < NumOps; ++Op)
      for (unsigned V = 0; V < NumVariants; ++V)
        W.Bodies.push_back(renderBody(P, Op, V));
  return W;
}

/// Deterministic zipfian request stream over a workload's lines.
class Stream {
public:
  Stream(size_t Programs, uint64_t Seed)
      : Rng(Seed ^ 0x9e3779b97f4a7c15ULL), ProgRng(Seed) {
    double Sum = 0.0;
    for (size_t I = 0; I < Programs; ++I) {
      Sum += 1.0 / static_cast<double>(I + 1);
      Cdf.push_back(Sum);
    }
    for (double &C : Cdf)
      C /= Sum;
  }

  uint32_t next() {
    size_t Prog = static_cast<size_t>(
        std::lower_bound(Cdf.begin(), Cdf.end(), ProgRng.nextDouble()) -
        Cdf.begin());
    Prog = std::min(Prog, Cdf.size() - 1);
    uint64_t R = Rng.nextBelow(100);
    size_t Op = NumOps - 1;
    for (size_t I = 0; I < NumOps; ++I) {
      if (R < OpWeights[I]) {
        Op = I;
        break;
      }
      R -= OpWeights[I];
    }
    unsigned Variant = static_cast<unsigned>(Rng.nextBelow(NumVariants));
    return static_cast<uint32_t>((Prog * NumOps + Op) * NumVariants +
                                 Variant);
  }

private:
  std::vector<double> Cdf;
  Prng Rng, ProgRng;
};

/// Replays a fixed list of lines (set-up priming).
class ListSource {
public:
  explicit ListSource(const std::vector<uint32_t> &L) : List(&L) {}
  uint32_t next() { return (*List)[Pos++ % List->size()]; }

private:
  const std::vector<uint32_t> *List;
  size_t Pos = 0;
};

//===----------------------------------------------------------------------===//
// Response checking
//===----------------------------------------------------------------------===//

const std::string EnvelopeHead = "{\"protocol\":\"sest-service/1\",";

/// Every response is checked three ways: the envelope echoes the id the
/// request carried (so responses are in order), the envelope says ok,
/// and, with the id removed, it is byte-identical to the first response
/// seen for the same line. verifyAgainstReferences() then compares each
/// line's first response with an uncached Service's answer.
struct Checker {
  explicit Checker(size_t Lines) : Seen(Lines, 0), Count(Lines, 0) {}

  std::vector<uint64_t> Seen; ///< Digest of the first response (0 = none).
  std::vector<uint64_t> Count;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void check(uint32_t Line, uint64_t Id, const std::string &Resp) {
    ++Attempted;
    std::string IdField = "\"id\":" + std::to_string(Id) + ",";
    if (Resp.compare(0, EnvelopeHead.size(), EnvelopeHead) != 0 ||
        Resp.compare(EnvelopeHead.size(), IdField.size(), IdField) != 0) {
      ++Failed;
      return;
    }
    std::string Stripped =
        EnvelopeHead + Resp.substr(EnvelopeHead.size() + IdField.size());
    size_t Ok = Stripped.find("\"ok\":");
    if (Ok == std::string::npos || Stripped.compare(Ok + 5, 4, "true") != 0) {
      ++Failed;
      return;
    }
    uint64_t D = digest(Stripped);
    ++Count[Line];
    if (Seen[Line] == 0)
      Seen[Line] = D;
    else if (Seen[Line] != D)
      ++Failed;
  }
};

/// Compares each line's recorded response with the uncached reference
/// answer, computing (and caching under \p RefsDir) the references that
/// are still missing. Returns the number of failed requests.
uint64_t verifyAgainstReferences(const Workload &W, const Checker &C,
                                 const std::string &RefsDir) {
  std::string Path = RefsDir + "/" + W.Spec.Name + ".digests";
  std::map<std::string, uint64_t> Refs = loadDigests(Path);
  std::vector<uint32_t> Missing;
  for (uint32_t L = 0; L < C.Seen.size(); ++L)
    if (C.Seen[L] && !Refs.count(std::to_string(L)))
      Missing.push_back(L);
  if (!Missing.empty()) {
    service::ServiceOptions O;
    O.Jobs = 2;
    O.CacheBudgetBytes = 0;
    service::Service Uncached(O);
    for (size_t I = 0; I < Missing.size(); I += 256) {
      std::vector<std::string> Batch;
      for (size_t J = I; J < std::min(Missing.size(), I + 256); ++J)
        Batch.push_back(W.Bodies[Missing[J]]);
      std::vector<std::string> Resp = Uncached.handleBatch(Batch);
      for (size_t J = 0; J < Resp.size(); ++J)
        Refs[std::to_string(Missing[I + J])] = digest(Resp[J]);
    }
    saveDigests(Path, Refs);
  }
  uint64_t Failed = 0;
  for (uint32_t L = 0; L < C.Seen.size(); ++L)
    if (C.Seen[L] && Refs[std::to_string(L)] != C.Seen[L])
      Failed += C.Count[L];
  return Failed;
}

//===----------------------------------------------------------------------===//
// The sestd child and its connection
//===----------------------------------------------------------------------===//

class Conn {
public:
  int WFd = -1;
  int RFd = -1;

  bool writeAll(std::string_view S) {
    while (!S.empty()) {
      ssize_t N = ::write(WFd, S.data(), S.size());
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      S.remove_prefix(static_cast<size_t>(N));
    }
    return true;
  }

  bool readLine(std::string &Out) {
    for (;;) {
      size_t Nl = Buf.find('\n', Pos);
      if (Nl != std::string::npos) {
        Out.assign(Buf, Pos, Nl - Pos);
        Pos = Nl + 1;
        return true;
      }
      Buf.erase(0, Pos);
      Pos = 0;
      char Chunk[1 << 16];
      ssize_t N = ::read(RFd, Chunk, sizeof(Chunk));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

private:
  std::string Buf;
  size_t Pos = 0;
};

struct Server {
  pid_t Pid = -1;
  Conn C;
};

Server startServer(const std::string &Sestd) {
  Server S;
  std::vector<std::string> Argv = {Sestd, "--jobs", "2"};
  std::vector<char *> CArgv;
  for (std::string &A : Argv)
    CArgv.push_back(A.data());
  CArgv.push_back(nullptr);

  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  int ToChild[2] = {-1, -1}, FromChild[2] = {-1, -1};
  if (::pipe2(ToChild, O_CLOEXEC) != 0 || ::pipe2(FromChild, O_CLOEXEC) != 0)
    die("pipe failed");
  // Deep pipes: the client must never be what starves the server.
  ::fcntl(ToChild[1], F_SETPIPE_SZ, 1 << 20);
  ::fcntl(FromChild[0], F_SETPIPE_SZ, 1 << 20);
  posix_spawn_file_actions_adddup2(&FA, ToChild[0], 0);
  posix_spawn_file_actions_adddup2(&FA, FromChild[1], 1);
  posix_spawn_file_actions_addopen(&FA, 2, "/dev/null", O_WRONLY, 0);
  int Rc = posix_spawn(&S.Pid, Argv[0].c_str(), &FA, nullptr, CArgv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&FA);
  if (Rc != 0)
    die("cannot start " + Sestd + ": " + std::strerror(Rc));

  ::close(ToChild[0]);
  ::close(FromChild[1]);
  S.C.WFd = ToChild[1];
  S.C.RFd = FromChild[0];
  return S;
}

/// Ends the session (EOF on stdin) and returns the child's peak RSS in MB.
double stopServer(Server &S) {
  ::close(S.C.WFd);
  ::close(S.C.RFd);
  int Status = 0;
  rusage Usage{};
  if (::wait4(S.Pid, &Status, 0, &Usage) < 0)
    die("wait4 failed");
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    die("sestd exited abnormally");
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

/// One exchange: a writer thread sends requests (as fast as the
/// connection takes them, or on an open-loop schedule when \p RatePerS is
/// set) while this thread reads and checks the responses. It stops after
/// \p MaxN requests or, when \p Seconds > 0, once that much time has
/// passed. A trailing `health` request marks the end of the stream.
struct PhaseLog {
  std::vector<uint32_t> Lines;
  std::vector<double> Recv;       ///< Response arrival, steady seconds.
  std::vector<double> Due, Sent;  ///< Open loop only.
  double Start = 0.0;
};

template <typename Source>
PhaseLog exchange(Server &S, const Workload &W, Checker &Chk, Source Src,
                  size_t MaxN, double Seconds, double RatePerS,
                  uint64_t &NextId) {
  PhaseLog L;
  if (RatePerS > 0) {
    L.Due.assign(MaxN, 0.0);
    L.Sent.assign(MaxN, 0.0);
  }
  size_t Expect = std::min<size_t>(MaxN, 1u << 21);
  L.Lines.reserve(Expect);
  L.Recv.reserve(Expect);
  uint64_t IdBase = NextId;
  std::atomic<bool> Stop{false}, Done{false};
  std::atomic<uint64_t> Final{0};
  bool WriteFailed = false;
  Source WriterSrc = Src;
  Clock::time_point T0 = Clock::now();
  L.Start = toSeconds(T0);

  std::thread Writer([&] {
    uint64_t I = 0;
    for (; I < MaxN && !Stop.load(std::memory_order_relaxed); ++I) {
      if (RatePerS > 0) {
        Clock::time_point Due =
            T0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(I / RatePerS));
        // Spin rather than sleep: on a virtual machine a sleeping thread
        // can wake milliseconds late, which would be charged to sestd.
        while (Clock::now() < Due)
          ;
        L.Due[I] = toSeconds(Due);
        L.Sent[I] = toSeconds(Clock::now());
      }
      if (!S.C.writeAll(W.line(WriterSrc.next(), IdBase + I) + "\n")) {
        WriteFailed = true;
        break;
      }
    }
    Final.store(I + 1);
    Done.store(true, std::memory_order_release);
    if (!S.C.writeAll("{\"op\":\"health\"}\n"))
      WriteFailed = true;
  });

  double EndAt = Seconds > 0 ? L.Start + Seconds : 0.0;
  std::string Resp;
  for (uint64_t K = 0;; ++K) {
    if (!S.C.readLine(Resp))
      die("sestd closed the connection");
    double Now = toSeconds(Clock::now());
    if (Done.load(std::memory_order_acquire) && K + 1 == Final.load())
      break; // the trailing health request
    uint32_t Line = Src.next();
    Chk.check(Line, IdBase + K, Resp);
    L.Lines.push_back(Line);
    L.Recv.push_back(Now);
    if (EndAt > 0 && Now >= EndAt)
      Stop.store(true, std::memory_order_relaxed);
  }
  Writer.join();
  if (WriteFailed)
    die("writing to sestd failed");
  NextId += L.Lines.size();
  return L;
}

/// The tier counters and request/batch totals of one `stats` answer.
struct StatsSnap {
  std::map<std::string, double> Gauges;
  double Requests = 0;
  double Batches = 0;
};

StatsSnap queryStats(Server &S) {
  std::string Resp;
  if (!S.C.writeAll("{\"op\":\"stats\"}\n") || !S.C.readLine(Resp))
    die("stats request failed");
  std::optional<JsonValue> Doc = parseJson(Resp);
  const JsonValue *Result = Doc ? Doc->find("result") : nullptr;
  if (!Result)
    die("malformed stats response");
  StatsSnap Snap;
  if (const JsonValue *G = Result->find("gauges"))
    for (const auto &[K, V] : G->Members)
      Snap.Gauges[K] = V.NumberVal;
  if (const JsonValue *T = Result->find("telemetry"))
    if (const JsonValue *C = T->find("counters")) {
      if (const JsonValue *R = C->find("service.requests"))
        Snap.Requests = R->NumberVal;
      if (const JsonValue *B = C->find("service.batches"))
        Snap.Batches = B->NumberVal;
    }
  return Snap;
}

const char *const Tiers[] = {"response", "ast", "cfg", "branch", "solve",
                             "plan"};

/// One Service's cache counters, by tier name.
using TierStats = std::map<std::string, service::CacheTierStats>;

//===----------------------------------------------------------------------===//
// Per-layer timing of the modules' public functions
//===----------------------------------------------------------------------===//

/// Sums over the programs a layer profile ran on.
struct LayerSums {
  size_t Programs = 0;
  double Bytes = 0, ParseUs = 0, CfgUs = 0, CgUs = 0, BranchUs = 0,
         SolveUs = 0, EstimateUs = 0, ScoreUs = 0, ReportScoreUs = 0,
         PlanUs = 0, PipelineUs = 0, LowerUs = 0, RunUs = 0, AstRunUs = 0;
  double Steps = 0;
  // Native tier (over NativePrograms).
  size_t NativePrograms = 0;
  double EmitUs = 0, CompileUs = 0, CBytes = 0, NativeRunUs = 0;
  // Tuner.
  double TuneUs = 0, Trials = 0;
  // Opt report (suite accounting only).
  double OptReportUs = 0;
  uint64_t Failed = 0;
};

std::string profileKey(Profile P) {
  P.ProgramName.clear();
  P.InputName.clear();
  return writeProfileText(P);
}

/// Times each layer's public entry point on \p P, in pipeline order, and
/// adds to \p S. The native tier and the tuner run only when asked
/// (they cost seconds per program).
void profileProgram(const SuiteProgram &P, bool Native, bool Tune,
                    bool OptReport, uint64_t Seed, LayerSums &S) {
  AstContext Ctx;
  DiagnosticEngine Diags;
  bool Ok = timed(S.ParseUs, [&] { return parseAndAnalyze(P.Source, Ctx, Diags); });
  if (!Ok)
    die("program " + P.Name + " does not compile: " + Diags.str());
  const TranslationUnit &Unit = Ctx.unit();
  CfgModule Cfgs = timed(S.CfgUs, [&] { return CfgModule::build(Unit, Diags); });
  CallGraph CG = timed(S.CgUs, [&] { return CallGraph::build(Unit, Cfgs); });

  EstimatorOptions Est;
  Est.Jobs = 1;
  std::vector<FunctionBranchPredictions> Branch =
      timed(S.BranchUs, [&] {
        BranchPredictorConfig BC = Est.Branch;
        BC.LoopIterations = Est.LoopIterations;
        BranchPredictor Predictor(BC);
        std::vector<FunctionBranchPredictions> Out(Unit.Functions.size());
        for (const auto &[F, G] : Cfgs.all())
          Out[F->functionId()] = Predictor.predictFunction(*G);
        return Out;
      });
  ProgramEstimate E = timed(
      S.EstimateUs, [&] { return estimateProgram(Unit, Cfgs, CG, Est); });
  timed(S.SolveUs,
        [&] { return estimateProgram(Unit, Cfgs, CG, Est, &Branch); });

  bc::BcModule Bc =
      timed(S.LowerUs, [&] { return bc::compileBytecode(Unit, Cfgs); });
  std::vector<Profile> Profiles;
  std::vector<RunResult> BcRuns;
  for (const ProgramInput &In : P.Inputs) {
    RunResult R = timed(S.RunUs, [&] {
      return bc::runProgramBytecode(Unit, Cfgs, Bc, In, {});
    });
    if (!R.Ok)
      die("program " + P.Name + " failed on input " + In.Name + ": " +
          R.Error);
    S.Steps += static_cast<double>(R.StepsExecuted);
    Profiles.push_back(R.TheProfile);
    BcRuns.push_back(std::move(R));
  }
  // The service's report op runs the AST walker on one input and scores.
  if (!P.Inputs.empty()) {
    InterpOptions AstOpts;
    AstOpts.Engine = InterpEngine::Ast;
    RunResult R = timed(S.AstRunUs, [&] {
      return runProgram(Unit, Cfgs, P.Inputs[0], AstOpts);
    });
    std::vector<size_t> Ids = scoredFunctionIds(Unit);
    timed(S.ReportScoreUs, [&] {
      double Sink = 0;
      for (double Cutoff : {0.10, 0.25, 0.50})
        Sink += intraProceduralScore(E, R.TheProfile, Ids, Cutoff) +
                functionInvocationScore(E, R.TheProfile, Ids, Cutoff) +
                callSiteScore(E, R.TheProfile, Cutoff);
      return Sink;
    });
  }
  timed(S.ScoreUs, [&] {
    Profile Agg = aggregateProfiles(Profiles);
    return obs::computeAccuracy(Unit, Cfgs, CG, E, Agg, Est);
  });
  // The service's optimize op: weights, layout, hints, inline plan.
  timed(S.PlanUs, [&] {
    opt::WeightSource Wt = opt::weightsFromEstimate(Unit, Cfgs, E, Est);
    opt::ProgramLayout Layout = opt::computeBlockLayout(Unit, Cfgs, Wt);
    opt::BranchHints Hints = opt::computeBranchHints(Unit, Cfgs, Wt);
    opt::InlinePlan Plan = opt::planInlining(Unit, Cfgs, CG, Wt);
    return Layout.Functions.size() + Hints.NeverTaken.size() +
           Plan.Sites.size();
  });

  if (Native) {
    const backend::Backend &B = backend::cBackend();
    std::string Err;
    std::string C = timed(S.EmitUs,
                          [&] { return B.emitSource(Unit, Cfgs, Bc, {}, &Err); });
    auto Art = timed(S.CompileUs,
                     [&] { return B.compile(Unit, Cfgs, Bc, {}, &Err); });
    if (C.empty() || !Art)
      die("native compile of " + P.Name + " failed: " + Err);
    S.CBytes += static_cast<double>(C.size());
    ++S.NativePrograms;
    for (size_t I = 0; I < P.Inputs.size(); ++I) {
      RunResult R = timed(S.NativeRunUs, [&] {
        return Art->run(Unit, Cfgs, P.Inputs[I], {});
      });
      if (R.StepsExecuted != BcRuns[I].StepsExecuted ||
          R.Output != BcRuns[I].Output ||
          R.ExitCode != BcRuns[I].ExitCode ||
          profileKey(R.TheProfile) != profileKey(BcRuns[I].TheProfile))
        ++S.Failed;
    }
  }

  // Last: the canned "all" pipeline inlines in place.
  timed(S.PipelineUs, [&] {
    opt::TuneConfig Config;
    opt::TuneConfig::canned("all", Config);
    opt::Pipeline Pipe(Config);
    return Pipe.run(Ctx, Cfgs, CG, opt::weightsFromEstimate(Unit, Cfgs, E, Est))
        .Trace.size();
  });

  if (Tune || OptReport) {
    std::vector<CompiledSuiteProgram> One;
    One.push_back(compileAndProfileProgram(P));
    if (!One[0].Ok)
      die("profiling " + P.Name + " failed: " + One[0].Error);
    if (OptReport)
      timed(S.OptReportUs, [&] {
        return opt::computeOptReport(One).Programs.size();
      });
    if (Tune) {
      tune::TuneOptions TO;
      TO.Seed = Seed;
      tune::TuneSuiteReport Rep =
          timed(S.TuneUs, [&] { return tune::computeTuneReport(One, TO); });
      for (const tune::TuneProgramReport &PR : Rep.Programs)
        for (const tune::TuneOracleResult &O : PR.Oracles)
          S.Trials += static_cast<double>(O.Evaluations);
    }
  }
  S.Bytes += static_cast<double>(P.Source.size());
  ++S.Programs;
}

/// Runs profileProgram over \p Programs on two workers (the benchmark's
/// jobs = 2) and merges the sums.
LayerSums profileLayers(const std::vector<const SuiteProgram *> &Programs,
                        const std::function<bool(size_t)> &Native,
                        const std::function<bool(size_t)> &Tune,
                        bool OptReport, uint64_t Seed) {
  std::vector<LayerSums> Parts(2);
  std::atomic<size_t> Next{0};
  auto Worker = [&](size_t W) {
    for (size_t I; (I = Next.fetch_add(1)) < Programs.size();)
      profileProgram(*Programs[I], Native(I), Tune(I), OptReport, Seed,
                     Parts[W]);
  };
  std::thread T(Worker, 1);
  Worker(0);
  T.join();
  LayerSums S = Parts[0];
  const LayerSums &B = Parts[1];
  S.Programs += B.Programs;
  S.Bytes += B.Bytes;
  S.ParseUs += B.ParseUs;
  S.CfgUs += B.CfgUs;
  S.CgUs += B.CgUs;
  S.BranchUs += B.BranchUs;
  S.SolveUs += B.SolveUs;
  S.EstimateUs += B.EstimateUs;
  S.ScoreUs += B.ScoreUs;
  S.ReportScoreUs += B.ReportScoreUs;
  S.PlanUs += B.PlanUs;
  S.PipelineUs += B.PipelineUs;
  S.LowerUs += B.LowerUs;
  S.RunUs += B.RunUs;
  S.AstRunUs += B.AstRunUs;
  S.Steps += B.Steps;
  S.NativePrograms += B.NativePrograms;
  S.EmitUs += B.EmitUs;
  S.CompileUs += B.CompileUs;
  S.CBytes += B.CBytes;
  S.NativeRunUs += B.NativeRunUs;
  S.TuneUs += B.TuneUs;
  S.Trials += B.Trials;
  S.OptReportUs += B.OptReportUs;
  S.Failed += B.Failed;
  return S;
}

double per(double Sum, double N) { return N > 0 ? Sum / N : 0.0; }

/// The layer metrics every workload reports from its LayerSums.
void writeLayerMetrics(JsonWriter &J, const LayerSums &S) {
  double N = static_cast<double>(S.Programs);
  double NN = static_cast<double>(S.NativePrograms);
  J.member("lang.parse_us", per(S.ParseUs, N));
  J.member("lang.bytes_per_us", per(S.Bytes, S.ParseUs));
  J.member("cfg.build_us", per(S.CfgUs, N));
  J.member("callgraph.build_us", per(S.CgUs, N));
  J.member("estimators.estimate_us", per(S.EstimateUs, N));
  J.member("metrics.score_us", per(S.ScoreUs, N));
  J.member("opt.pipeline_us", per(S.PipelineUs, N));
  J.member("tune.trials", S.Trials);
  J.member("tune.ms_per_trial", per(S.TuneUs / 1000.0, S.Trials));
  J.member("interp.lower_us", per(S.LowerUs, N));
  J.member("interp.run_us", per(S.RunUs, N));
  J.member("interp.steps", S.Steps);
  J.member("interp.steps_per_us", per(S.Steps, S.RunUs));
  J.member("backend.emit_ms", per(S.EmitUs / 1000.0, NN));
  J.member("backend.cc_ms", per((S.CompileUs - S.EmitUs) / 1000.0, NN));
  J.member("backend.c_kb", per(S.CBytes / 1024.0, NN));
  J.member("backend.run_ms", per(S.NativeRunUs / 1000.0, NN));
}

//===----------------------------------------------------------------------===//
// The sestd sessions
//===----------------------------------------------------------------------===//

/// Sends \p N requests one at a time, each after the previous answer, so
/// the server's caches end in the same state on every run.
template <typename Source>
void closedLoop(Server &S, const Workload &W, Checker &Chk, Source Src,
                size_t N, uint64_t &NextId) {
  std::string Resp;
  for (size_t I = 0; I < N; ++I, ++NextId) {
    uint32_t Line = Src.next();
    if (!S.C.writeAll(W.line(Line, NextId) + "\n") || !S.C.readLine(Resp))
      die("sestd stopped answering during set-up");
    Chk.check(Line, NextId, Resp);
  }
}

/// Sets a fresh server up (primes every line once) and returns the
/// seconds it took, from spawn to the last priming answer.
double setUp(Server &S, const std::string &Sestd, const Workload &W,
             Checker &Chk, const std::vector<uint32_t> &AllLines,
             uint64_t &NextId) {
  Clock::time_point T0 = Clock::now();
  S = startServer(Sestd);
  closedLoop(S, W, Chk, ListSource(AllLines), AllLines.size(), NextId);
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Replays \p Lines through an in-process Service with options \p O,
/// after \p SetupLines, in batches of \p Depth. Returns the replay's wall
/// time in microseconds; \p Before/After receive the service's tier
/// counters around the replay.
double replay(const Workload &W, const service::ServiceOptions &O,
              const std::vector<uint32_t> &SetupLines,
              const std::vector<uint32_t> &Lines, size_t Depth,
              TierStats *Before = nullptr, TierStats *After = nullptr) {
  service::Service Svc(O);
  auto Run = [&](const std::vector<uint32_t> &Ls, uint64_t IdBase) {
    std::vector<std::string> Batch;
    for (size_t I = 0; I < Ls.size(); I += Depth) {
      Batch.clear();
      for (size_t J = I; J < std::min(Ls.size(), I + Depth); ++J)
        Batch.push_back(W.line(Ls[J], IdBase + J));
      Svc.handleBatch(Batch);
    }
  };
  auto Snap = [&](TierStats *Out) {
    if (Out)
      for (const service::ShardedCache *C : Svc.caches().all())
        (*Out)[C->tier()] = C->stats();
  };
  Run(SetupLines, 0);
  Snap(Before);
  Clock::time_point A = tick();
  Run(Lines, SetupLines.size());
  double Us = usBetween(A, tick());
  Snap(After);
  return Us;
}

int runSestd(const Args &A) {
  std::string Name = A.str("--workload");
  uint64_t Seed = static_cast<uint64_t>(A.num("--seed", 1));
  double Seconds = A.num("--seconds", 10);
  bool Trace = A.num("--trace", 0) != 0;
  std::string Sestd = A.str("--sestd");
  std::string Refs = A.str("--refs", ".");
  if (Sestd.empty())
    die("--sestd is required");

  Workload W = makeWorkload(Name, Seed);
  Checker Chk(W.Bodies.size());
  std::vector<uint32_t> AllLines(W.Bodies.size());
  for (uint32_t I = 0; I < AllLines.size(); ++I)
    AllLines[I] = I;
  uint64_t NextId = 0;

  // Set-up is measured SetupRuns times (throw-away sessions plus the
  // measured one) and reported as the median. Peak RSS is the median over
  // the throw-away sessions, each of which primed every line: the
  // measured session's peak read either ~35 or ~57 MB from run to run.
  std::vector<double> SetupS, PrimedRssMb;
  for (int I = 1; I < W.Spec.SetupRuns; ++I) {
    Server Extra;
    SetupS.push_back(setUp(Extra, Sestd, W, Chk, AllLines, NextId));
    PrimedRssMb.push_back(stopServer(Extra));
  }
  Server S;
  SetupS.push_back(setUp(S, Sestd, W, Chk, AllLines, NextId));

  Stream Str(W.Programs.size(), W.Seed);

  // Latency first: the requests a server has seen before it are then
  // the same in every run, so anything that grows with the request count
  // (buffers, cache state) is at the same point whatever the throughput.
  StatsSnap S0 = queryStats(S);
  size_t LatN = static_cast<size_t>(W.Spec.RatePerS * 0.75 * Seconds);
  PhaseLog Lat =
      exchange(S, W, Chk, Str, LatN, 0, W.Spec.RatePerS, NextId);
  for (size_t I = 0; I < Lat.Lines.size(); ++I)
    Str.next();
  StatsSnap S1 = queryStats(S);
  PhaseLog Sat =
      exchange(S, W, Chk, Str, SIZE_MAX, 0.25 * Seconds, 0, NextId);
  StatsSnap S2 = queryStats(S);
  double RssMb = stopServer(S);

  // Throughput over twenty equal slices of the responses that arrived
  // after the first tenth (the pipeline's fill), and latency quantiles
  // per tenth of the open-loop phase. Other tenants of a shared machine
  // only ever slow a slice down, so the run reports the 80th percentile
  // of the slice rates and the 20th percentile of the per-tenth latency
  // quantiles: the parts of the run that interference touched least.
  std::vector<double> Rates;
  size_t Skip = Sat.Recv.size() / 10;
  size_t Slice = (Sat.Recv.size() - Skip) / 20;
  for (size_t I = 0; Slice > 1 && I < 20; ++I) {
    size_t A0 = Skip + I * Slice, B0 = A0 + Slice;
    Rates.push_back(static_cast<double>(Slice) /
                    (Sat.Recv[B0 - 1] - Sat.Recv[A0 - 1]));
  }
  if (Rates.empty())
    die("the saturation phase completed too few requests");
  std::vector<double> LatUs, LateUs, P50s, P90s, LateP99s;
  for (size_t I = 0; I < Lat.Recv.size(); ++I) {
    LatUs.push_back((Lat.Recv[I] - Lat.Due[I]) * 1e6);
    LateUs.push_back((Lat.Sent[I] - Lat.Due[I]) * 1e6);
  }
  for (size_t I = 0, Tenth = LatUs.size() / 10; Tenth && I < 10; ++I) {
    auto Part = [&](const std::vector<double> &V) {
      return std::vector<double>(V.begin() + I * Tenth,
                                 V.begin() + (I + 1) * Tenth);
    };
    P50s.push_back(quantile(Part(LatUs), 0.5));
    P90s.push_back(quantile(Part(LatUs), 0.9));
    LateP99s.push_back(quantile(Part(LateUs), 0.99));
  }
  // The generator's p99 send delay, taken over tenths of the phase the
  // same way as the latency it qualifies. It is behind its schedule when
  // that exceeds one inter-arrival gap: the reported latency then comes
  // from stretches where requests were not sent at the stated rate, and
  // the run is invalid.
  double LateP99 = quantile(LateP99s, 0.2);
  bool GeneratorValid = LateP99 <= 1e6 / W.Spec.RatePerS;

  uint64_t Failed = Chk.Failed + verifyAgainstReferences(W, Chk, Refs);

  JsonWriter J;
  J.beginObject();
  J.member("workload", Name);
  J.member("seed", Seed);
  J.member("attempted", Chk.Attempted);
  J.member("failed", Failed);
  J.key("setup_s").beginArray();
  for (double V : SetupS)
    J.value(V);
  J.endArray();
  J.member("requests_per_s", quantile(Rates, 0.8));
  J.key("slice_rates").beginArray();
  for (double V : Rates)
    J.value(V);
  J.endArray();
  J.member("saturation_requests", static_cast<uint64_t>(Sat.Lines.size()));
  J.member("rate_per_s", W.Spec.RatePerS);
  J.member("latency_samples", static_cast<uint64_t>(LatUs.size()));
  J.member("latency_p50_us", quantile(P50s, 0.2));
  J.member("latency_p90_us", quantile(P90s, 0.2));
  J.key("tenth_p50_us").beginArray();
  for (double V : P50s)
    J.value(V);
  J.endArray();
  J.key("latency_quantiles_us").beginObject();
  for (double Q : {0.9, 0.95, 0.99, 0.999})
    J.member(std::to_string(Q).substr(0, 5), quantile(LatUs, Q));
  J.endObject();
  J.member("generator_late_p50_us", quantile(LateUs, 0.5));
  J.member("generator_late_p99_us", LateP99);
  J.member("generator_late_p99_whole_phase_us", quantile(LateUs, 0.99));
  J.member("generator_valid", GeneratorValid);
  J.member("peak_rss_mb", quantile(PrimedRssMb, 0.5));
  J.key("primed_peak_rss_mb").beginArray();
  for (double V : PrimedRssMb)
    J.value(V);
  J.endArray();
  J.member("session_peak_rss_mb", RssMb);
  J.key("latency_phase_hit_ratio").beginObject();
  for (const char *T : Tiers) {
    std::string Base = std::string("service.cache.") + T + ".";
    double H = S1.Gauges[Base + "hits"] - S0.Gauges[Base + "hits"];
    double M = S1.Gauges[Base + "misses"] - S0.Gauges[Base + "misses"];
    J.member(T, H + M > 0 ? H / (H + M) : 0.0);
  }
  J.endObject();

  if (Trace) {
    double ClockUs = clockReadUs();
    uint64_t ReadsBefore = ClockReads.load();
    Clock::time_point TraceStart = Clock::now();
    double E2eUs = 1e6 / quantile(Rates, 0.8);
    double Requests = S2.Requests - S1.Requests - 1; // minus the stats op
    double Batches = S2.Batches - S1.Batches - 1;
    double Depth = Batches > 0 ? Requests / Batches : 1.0;
    size_t ReplayDepth =
        std::max<size_t>(1, static_cast<size_t>(std::lround(Depth)));

    // Everything the server saw before the saturation phase.
    std::vector<uint32_t> SetupLines = AllLines;
    SetupLines.insert(SetupLines.end(), Lat.Lines.begin(), Lat.Lines.end());
    std::vector<uint32_t> ReplayLines(
        Sat.Lines.begin(),
        Sat.Lines.begin() + std::min<size_t>(Sat.Lines.size(), 30000));
    double N = static_cast<double>(ReplayLines.size());
    service::ServiceOptions Served;
    Served.Jobs = 2;
    double HandleUs = replay(W, Served, SetupLines, ReplayLines, ReplayDepth) / N;
    service::ServiceOptions Serial;
    Serial.Jobs = 1;
    TierStats B0, B1;
    double SerialUs =
        replay(W, Serial, SetupLines, ReplayLines, ReplayDepth, &B0, &B1) / N;

    // The miss path. The session above was primed, so it only ever hit
    // the response tier; the same stream from a cold, capped cache looks
    // up and misses in every tier. One worker, so the hit ratios are a
    // deterministic function of the code.
    service::ServiceOptions Capped;
    Capped.Jobs = 1;
    Capped.CacheBudgetBytes = MissBudgetBytes;
    std::vector<uint32_t> MissLines;
    Stream MissStream(W.Programs.size(), W.Seed);
    for (size_t I = 0; I < W.Spec.MissRequests; ++I)
      MissLines.push_back(MissStream.next());
    TierStats M0, M1;
    double MissUs = replay(W, Capped, {}, MissLines, 1, &M0, &M1) /
                    static_cast<double>(MissLines.size());

    // The hit path: the same lines answered again from a warm service.
    std::vector<uint32_t> HitLines(
        ReplayLines.begin(),
        ReplayLines.begin() + std::min<size_t>(ReplayLines.size(), 2000));
    double HitUs = 0;
    {
      service::ServiceOptions O;
      O.Jobs = 1;
      service::Service Svc(O);
      std::vector<std::string> Batch;
      for (size_t I = 0; I < HitLines.size(); ++I)
        Batch.push_back(W.line(HitLines[I], I));
      Svc.handleBatch(Batch);
      Clock::time_point T = tick();
      for (int Pass = 0; Pass < 3; ++Pass)
        Svc.handleBatch(Batch);
      HitUs = usBetween(T, tick()) / (3.0 * static_cast<double>(Batch.size()));
    }

    // support: request decoding and content hashing on the stream.
    double JsonUs = 0, HashUs = 0;
    size_t SupportN = std::min<size_t>(ReplayLines.size(), 5000);
    for (size_t I = 0; I < SupportN; ++I) {
      std::string Line = W.line(ReplayLines[I], I);
      timed(JsonUs, [&] { return parseJson(Line).has_value(); });
      timed(HashUs, [&] { return contentHash64(W.sourceOf(ReplayLines[I])); });
    }
    JsonUs /= static_cast<double>(SupportN);
    HashUs /= static_cast<double>(SupportN);

    // Pipeline layers on an evenly spaced sample of the pool.
    LayerSums L;
    std::vector<const SuiteProgram *> Sample;
    size_t Want = std::min(W.Spec.LayerSample, W.Programs.size());
    for (size_t I = 0; I < Want; ++I)
      Sample.push_back(&W.Programs[I * W.Programs.size() / Want]);
    if (!Sample.empty())
      L = profileLayers(Sample, [](size_t I) { return I == 0; },
                        [](size_t I) { return I < 2; }, false, Seed);
    Failed += L.Failed;

    // The serial replay's time, modelled as the hit path for every
    // request plus each tier miss's layer cost. Misses of report lines
    // are taken in proportion to their share of the replayed requests.
    double Np = std::max<double>(1, static_cast<double>(L.Programs));
    auto Misses = [&](const char *Tier) {
      return static_cast<double>(B1[Tier].Misses - B0[Tier].Misses);
    };
    double ReportShare = 0;
    for (uint32_t Ln : ReplayLines)
      ReportShare += std::strcmp(W.opOf(Ln), "report") == 0;
    ReportShare /= N;
    double ModelUs = N * HitUs + Misses("ast") * L.ParseUs / Np +
                     Misses("cfg") * (L.CfgUs + L.CgUs) / Np +
                     Misses("branch") * L.BranchUs / Np +
                     Misses("solve") * L.SolveUs / Np +
                     Misses("plan") * L.PlanUs / Np +
                     Misses("response") * ReportShare *
                         (L.AstRunUs + L.ReportScoreUs) / Np;
    double Unaccounted =
        SerialUs > 0 ? (1.0 - ModelUs / (SerialUs * N)) * HandleUs / E2eUs
                     : 0.0;

    double TraceWallUs = usBetween(TraceStart, Clock::now());
    double Overhead = static_cast<double>(ClockReads.load() - ReadsBefore) *
                      ClockUs / TraceWallUs;

    J.key("layers").beginObject();
    J.member("sestd.frontend_us_per_req", E2eUs - HandleUs);
    J.member("sestd.batch_depth_mean", Depth);
    J.member("service.handle_us_per_req", HandleUs);
    // Hit ratios and evictions from the miss replay; resident bytes from
    // the primed sestd session, whose footprint peak_rss_mb reflects.
    double Evictions = 0, Bytes = 0;
    for (const char *T : Tiers) {
      std::string Base = std::string("service.cache.") + T + ".";
      double H = static_cast<double>(M1[T].Hits - M0[T].Hits);
      double M = static_cast<double>(M1[T].Misses - M0[T].Misses);
      J.member(Base + "hit_ratio", H + M > 0 ? H / (H + M) : 0.0);
      J.member(Base + "lookups", H + M);
      Evictions += static_cast<double>(M1[T].Evictions - M0[T].Evictions);
      Bytes += S2.Gauges[Base + "bytes"];
      J.member(Base + "primed_bytes", S2.Gauges[Base + "bytes"]);
    }
    J.member("service.cache.evictions", Evictions);
    J.member("service.cache.bytes", Bytes);
    J.member("service.miss_us_per_req", MissUs);
    J.member("service.hit_us_per_req", HitUs);
    J.member("service.serial_us_per_req", SerialUs);
    J.member("support.json_parse_us_per_req", JsonUs);
    J.member("support.hash_us_per_req", HashUs);
    writeLayerMetrics(J, L);
    J.member("bench.unaccounted_frac", Unaccounted);
    J.member("bench.trace_overhead_frac", Overhead);
    J.member("bench.generator_late_p99_us", LateP99);
    J.endObject();
    J.member("failed_with_layers", Failed);
  }
  J.endObject();
  std::printf("%s\n", J.str().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// The suite: the offline compiler path
//===----------------------------------------------------------------------===//

/// The programs whose native tier the suite measures: the reference
/// (compress), the largest emitted C with heavy indirect calls (xlisp),
/// and the longest-running program (alvinn).
bool nativeProgram(const std::string &Name) {
  return Name == "compress" || Name == "xlisp" || Name == "alvinn";
}

/// The suite in a fixed order, the native-tier programs last: the other
/// requests then never share the machine with a host compiler, whose
/// placement next to them varied their latency from run to run.
std::vector<const SuiteProgram *> suiteOrder() {
  std::vector<const SuiteProgram *> Order;
  for (const SuiteProgram &P : benchmarkSuite())
    if (!nativeProgram(P.Name))
      Order.push_back(&P);
  for (const SuiteProgram &P : benchmarkSuite())
    if (nativeProgram(P.Name))
      Order.push_back(&P);
  return Order;
}

/// Replaces the report's engine field so reports from two engines
/// compare byte-for-byte.
std::string withoutEngine(std::string Json) {
  for (const char *E : {"\"engine\":\"ast\"", "\"engine\":\"bytecode\""}) {
    size_t At = Json.find(E);
    if (At != std::string::npos)
      Json.replace(At, std::strlen(E), "\"engine\":\"-\"");
  }
  return Json;
}

tune::TuneOptions tuneOptions(uint64_t Seed, InterpEngine Engine) {
  tune::TuneOptions TO;
  TO.Seed = Seed;
  TO.Budget = 24;
  TO.Engine = Engine;
  TO.Jobs = 1;
  return TO;
}

opt::OptReportOptions optOptions(InterpEngine Engine) {
  opt::OptReportOptions O;
  O.Engine = Engine;
  O.Jobs = 1;
  return O;
}

/// References for the suite, from the AST walker (an engine independent
/// of the bytecode VM and the native tier): per program × input the
/// steps, exit code, output and profile; per program the opt report and
/// (per seed) the tune report. Computed once and cached under \p Dir.
std::map<std::string, uint64_t> suiteReferences(const std::string &Dir,
                                                uint64_t Seed) {
  std::string Path = Dir + "/suite-ast.digests";
  std::string TunePath = Dir + "/suite-tune-" + std::to_string(Seed) + ".digests";
  std::map<std::string, uint64_t> Refs = loadDigests(Path);
  std::map<std::string, uint64_t> TuneRefs = loadDigests(TunePath);
  const std::vector<SuiteProgram> &Suite = benchmarkSuite();
  bool HaveBase = Refs.size() >= Suite.size();
  bool HaveTune = TuneRefs.size() >= Suite.size();
  if (!HaveBase || !HaveTune) {
    InterpOptions AstOpts;
    AstOpts.Engine = InterpEngine::Ast;
    std::vector<std::map<std::string, uint64_t>> Parts(Suite.size());
    std::atomic<size_t> Next{0};
    auto Worker = [&] {
      for (size_t I; (I = Next.fetch_add(1)) < Suite.size();) {
        const SuiteProgram &P = Suite[I];
        std::map<std::string, uint64_t> &Out = Parts[I];
        std::vector<CompiledSuiteProgram> One;
        One.push_back(compileProgramOnly(P));
        if (!One[0].Ok)
          die("reference compile of " + P.Name + " failed");
        if (!HaveBase) {
          for (const ProgramInput &In : P.Inputs) {
            RunResult R =
                runProgram(One[0].unit(), *One[0].Cfgs, In, AstOpts);
            std::string K = P.Name + "/" + In.Name + "/";
            Out[K + "steps"] = R.StepsExecuted;
            Out[K + "exit"] = static_cast<uint64_t>(R.ExitCode);
            Out[K + "output"] = digest(R.Output);
            Out[K + "profile"] = digest(profileKey(R.TheProfile));
          }
        }
        One[0] = compileAndProfileProgram(P, AstOpts);
        if (!HaveBase)
          Out[P.Name + "/opt"] = digest(withoutEngine(opt::optReportJson(
              opt::computeOptReport(One, optOptions(InterpEngine::Ast)),
              optOptions(InterpEngine::Ast))));
        if (!HaveTune) {
          tune::TuneOptions TO = tuneOptions(Seed, InterpEngine::Ast);
          Out["tune/" + P.Name] = digest(withoutEngine(
              tune::tuneReportJson(tune::computeTuneReport(One, TO), TO)));
        }
      }
    };
    std::thread T(Worker);
    Worker();
    T.join();
    for (const auto &Part : Parts)
      for (const auto &[K, V] : Part) {
        if (K.rfind("tune/", 0) == 0)
          TuneRefs[K.substr(5)] = V;
        else
          Refs[K] = V;
      }
    if (!HaveBase)
      saveDigests(Path, Refs);
    if (!HaveTune)
      saveDigests(TunePath, TuneRefs);
  }
  for (const auto &[K, V] : TuneRefs)
    Refs["tune/" + K] = V;
  return Refs;
}

/// One program through the offline path, timed per stage.
struct SuiteRequest {
  std::string Program;
  double LatencyS = 0;
  double ProfileS = 0, EstimateS = 0, OptimizeS = 0, TuneS = 0;
  double NativeCompileS = 0, NativeRunS = 0, NativeCBytes = 0;
  uint64_t Checks = 0, Failed = 0;
};

SuiteRequest runSuiteRequest(const SuiteProgram &P, uint64_t Seed,
                             const std::map<std::string, uint64_t> &Refs) {
  SuiteRequest Q;
  Q.Program = P.Name;
  auto Check = [&](const std::string &Key, uint64_t Got) {
    ++Q.Checks;
    auto It = Refs.find(Key);
    if (It == Refs.end() || It->second != Got) {
      ++Q.Failed;
      std::fprintf(stderr, "sestbench: %s differs from its reference\n",
                   Key.c_str());
    }
  };
  auto Seconds = [](Clock::time_point A) {
    return std::chrono::duration<double>(Clock::now() - A).count();
  };
  Clock::time_point T0 = Clock::now();

  std::vector<CompiledSuiteProgram> One;
  One.push_back(compileAndProfileProgram(P));
  Q.ProfileS = Seconds(T0);
  CompiledSuiteProgram &C = One[0];
  if (!C.Ok || C.Profiles.size() != P.Inputs.size())
    die("profiling " + P.Name + " failed: " + C.Error);
  for (size_t I = 0; I < P.Inputs.size(); ++I) {
    std::string K = P.Name + "/" + P.Inputs[I].Name + "/";
    Check(K + "steps", C.RunStats[I].Steps);
    Check(K + "exit", static_cast<uint64_t>(C.RunStats[I].ExitCode));
    Check(K + "profile", digest(profileKey(C.Profiles[I])));
  }

  Clock::time_point T1 = Clock::now();
  std::vector<obs::AccuracyReport> Acc = computeSuiteAccuracy(One, {}, 1);
  Q.EstimateS = Seconds(T1);
  if (Acc.size() != 1)
    ++Q.Failed;

  Clock::time_point T2 = Clock::now();
  opt::OptReportOptions OO = optOptions(InterpEngine::Bytecode);
  opt::OptSuiteReport Opt = opt::computeOptReport(One, OO);
  Q.OptimizeS = Seconds(T2);
  Check(P.Name + "/opt", digest(withoutEngine(opt::optReportJson(Opt, OO))));

  Clock::time_point T3 = Clock::now();
  tune::TuneOptions TO = tuneOptions(Seed, InterpEngine::Bytecode);
  tune::TuneSuiteReport Tune = tune::computeTuneReport(One, TO);
  Q.TuneS = Seconds(T3);
  Check("tune/" + P.Name, digest(withoutEngine(tune::tuneReportJson(Tune, TO))));

  if (nativeProgram(P.Name)) {
    const backend::Backend &B = backend::cBackend();
    std::string Err;
    Clock::time_point T4 = Clock::now();
    std::shared_ptr<const backend::NativeArtifact> Art =
        B.compile(C.unit(), *C.Cfgs, *C.Bc, {}, &Err);
    Q.NativeCompileS = Seconds(T4);
    if (!Art)
      die("native compile of " + P.Name + " failed: " + Err);
    Q.NativeCBytes = static_cast<double>(Art->sourceBytes());
    for (size_t I = 0; I < P.Inputs.size(); ++I) {
      Clock::time_point T5 = Clock::now();
      RunResult R = Art->run(C.unit(), *C.Cfgs, P.Inputs[I], {});
      Q.NativeRunS += Seconds(T5);
      std::string K = P.Name + "/" + P.Inputs[I].Name + "/";
      Check(K + "steps", R.StepsExecuted);
      Check(K + "exit", static_cast<uint64_t>(R.ExitCode));
      Check(K + "output", digest(R.Output));
      Check(K + "profile", digest(profileKey(R.TheProfile)));
      // And against the bytecode VM's profile of the same run.
      ++Q.Checks;
      if (profileKey(R.TheProfile) != profileKey(C.Profiles[I]))
        ++Q.Failed;
    }
  }
  Q.LatencyS = Seconds(T0);
  return Q;
}

int runSuitePass(const Args &A) {
  uint64_t Seed = static_cast<uint64_t>(A.num("--seed", 1));
  std::string Refs = A.str("--refs", ".");
  std::vector<const SuiteProgram *> Order = suiteOrder();
  std::map<std::string, uint64_t> RefTable;
  if (!A.flag("--probe"))
    RefTable = suiteReferences(Refs, Seed);
  double ReadyS = toSeconds(Clock::now());
  if (A.flag("--probe")) {
    std::printf("{\"ready_s\":%.9f}\n", ReadyS);
    return 0;
  }

  // Two workers pull programs in seeded order.
  std::vector<SuiteRequest> Done(Order.size());
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Order.size();)
      Done[I] = runSuiteRequest(*Order[I], Seed, RefTable);
  };
  Clock::time_point T0 = Clock::now();
  std::thread T(Worker);
  Worker();
  T.join();
  double PassS = std::chrono::duration<double>(Clock::now() - T0).count();

  JsonWriter J;
  J.beginObject();
  J.member("ready_s", ReadyS);
  J.member("pass_s", PassS);
  uint64_t Checks = 0, Failed = 0;
  J.key("requests").beginArray();
  for (const SuiteRequest &Q : Done) {
    Checks += Q.Checks;
    Failed += Q.Failed;
    J.beginObject();
    J.member("program", Q.Program);
    J.member("latency_s", Q.LatencyS);
    J.member("profile_s", Q.ProfileS);
    J.member("estimate_s", Q.EstimateS);
    J.member("optimize_s", Q.OptimizeS);
    J.member("tune_s", Q.TuneS);
    J.member("native_compile_s", Q.NativeCompileS);
    J.member("native_run_s", Q.NativeRunS);
    J.member("native_c_bytes", Q.NativeCBytes);
    J.endObject();
  }
  J.endArray();
  J.member("attempted", Checks);
  J.member("failed", Failed);
  rusage Usage{};
  ::getrusage(RUSAGE_SELF, &Usage);
  J.member("peak_rss_mb", static_cast<double>(Usage.ru_maxrss) / 1024.0);
  J.endObject();
  std::printf("%s\n", J.str().c_str());
  return 0;
}

/// The suite's per-layer decomposition, plus the per-program stage sums
/// it is checked against (bench.unaccounted_frac is computed by run.py
/// from this and a pass's stage times).
int runSuiteLayers(const Args &A) {
  uint64_t Seed = static_cast<uint64_t>(A.num("--seed", 1));
  double ClockUs = clockReadUs();
  std::vector<const SuiteProgram *> Order = suiteOrder();
  Clock::time_point T0 = Clock::now();
  LayerSums L = profileLayers(
      Order, [&](size_t I) { return nativeProgram(Order[I]->Name); },
      [](size_t) { return true; }, true, Seed);
  double WallUs = usBetween(T0, Clock::now());

  // Each pass stage, as the sum of the layers it is made of.
  JsonWriter J;
  J.beginObject();
  J.key("stage_us").beginObject();
  J.member("profile", L.ParseUs + L.CfgUs + L.CgUs + L.LowerUs + L.RunUs);
  J.member("estimate", L.EstimateUs + L.ScoreUs);
  J.member("optimize", L.OptReportUs);
  J.member("tune", L.TuneUs);
  J.member("native", L.CompileUs + L.NativeRunUs);
  J.endObject();
  J.key("layers").beginObject();
  writeLayerMetrics(J, L);
  J.member("bench.trace_overhead_frac",
           static_cast<double>(ClockReads.load()) * ClockUs / WallUs);
  J.endObject();
  J.member("failed", L.Failed);
  J.endObject();
  std::printf("%s\n", J.str().c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2)
    die("usage: sestbench sestd|suite-pass|suite-layers [options]");
  std::string Cmd = argv[1];
  Args A(argc, argv);
  if (Cmd == "sestd")
    return runSestd(A);
  if (Cmd == "suite-pass")
    return runSuitePass(A);
  if (Cmd == "suite-layers")
    return runSuiteLayers(A);
  if (Cmd == "suite-refs") {
    suiteReferences(A.str("--refs", "."),
                    static_cast<uint64_t>(A.num("--seed", 1)));
    std::printf("{}\n");
    return 0;
  }
  die("unknown subcommand '" + Cmd + "'");
}
