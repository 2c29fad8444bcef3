//===- tools/sestd.cpp - Static-estimator analysis server ------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sestd — the long-running analysis service. Reads newline-delimited
/// `sest-service/1` JSON requests from stdin (or a Unix socket with
/// --socket), executes them batched on a worker pool, and writes one
/// JSON response line per request, in request order. A batch is every
/// request already received, up to --batch; lines over 16 MiB are
/// answered with an error. Repeated or
/// overlapping requests are answered from the content-addressed
/// memoization cache (src/service/); responses are byte-identical
/// cold, warm, and at every --jobs value. See docs/SERVICE.md for the
/// protocol and the determinism contract.
///
/// A session ends at EOF or after a `{"op":"shutdown"}` request has
/// been answered (the batch it arrived in is always drained first).
///
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "obs/EventLog.h"
#include "obs/Export.h"
#include "obs/Telemetry.h"
#include "obs/Window.h"
#include "support/CliOptions.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace sest;

namespace {

void out(const std::string &S) { std::fputs(S.c_str(), stdout); }
void err(const std::string &S) { std::fputs(S.c_str(), stderr); }

/// The options sestd understands; generates the usage text (same single
/// source of truth scheme as sestc).
const OptionSpec OptionTable[] = {
    {"--jobs", "N",
     "worker threads per batch (default 1, 0 = cores; responses "
     "identical for every N)"},
    {"--batch", "N", "max requests executed per batch (default 64)"},
    {"--cache-bytes", "N",
     "total memoization budget in bytes (default 268435456)"},
    {"--cache-shards", "N", "mutex stripes per cache tier (default 16)"},
    {"--no-cache", nullptr, "disable memoization (every request recomputes)"},
    {"--socket", "PATH", "serve on a Unix socket instead of stdin/stdout"},
    {"--metrics", "FILE[:N]",
     "write a Prometheus snapshot (cumulative + rolling window) every N "
     "requests (default 1000) and at exit"},
    {"--metrics-scope", "MODE",
     "snapshot scope: live (default) or deterministic (byte-stable "
     "across --jobs and cache state)"},
    {"--stats", nullptr, "print phase times and counters to stderr at exit"},
    {"--trace", "FILE", "write Chrome trace-event JSON of the session"},
    {"--log", "FILE",
     "write the sest-events/1 JSONL decision/provenance log"},
    {"--help", nullptr, "print this help and exit"},
};

std::string helpText() {
  return renderHelp("usage: sestd [options]", OptionTable, 25);
}

struct Options {
  service::ServiceOptions Svc;
  size_t MaxBatch = 64;
  std::string SocketPath;
  std::string TraceFile;
  std::string LogFile;
  std::string MetricsFile;
  size_t MetricsEvery = 1000;
  bool MetricsDeterministic = false;
  bool Stats = false;
};

[[noreturn]] void usageError(const std::string &Message) {
  err("sestd: " + Message + "\n" + helpText());
  std::exit(2);
}

Options parseArgs(int argc, char **argv) {
  Options O;
  auto NumberArg = [&](int &I, const char *Flag) -> long long {
    if (I + 1 >= argc)
      usageError(std::string(Flag) + " requires a value");
    char *End = nullptr;
    long long V = std::strtoll(argv[++I], &End, 10);
    if (!End || *End != '\0' || V < 0)
      usageError(std::string(Flag) + " requires a non-negative integer");
    return V;
  };
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--help") {
      out(helpText());
      std::exit(0);
    } else if (A == "--jobs") {
      O.Svc.Jobs = static_cast<unsigned>(NumberArg(I, "--jobs"));
    } else if (A == "--batch") {
      long long V = NumberArg(I, "--batch");
      if (V < 1)
        usageError("--batch requires N >= 1");
      O.MaxBatch = static_cast<size_t>(V);
    } else if (A == "--cache-bytes") {
      O.Svc.CacheBudgetBytes =
          static_cast<size_t>(NumberArg(I, "--cache-bytes"));
    } else if (A == "--cache-shards") {
      long long V = NumberArg(I, "--cache-shards");
      if (V < 1)
        usageError("--cache-shards requires N >= 1");
      O.Svc.CacheShards = static_cast<unsigned>(V);
    } else if (A == "--no-cache") {
      O.Svc.CacheBudgetBytes = 0;
    } else if (A == "--socket") {
      if (I + 1 >= argc)
        usageError("--socket requires a path");
      O.SocketPath = argv[++I];
    } else if (A == "--metrics") {
      if (I + 1 >= argc)
        usageError("--metrics requires a file");
      std::string V = argv[++I];
      // FILE[:EVERY_N] — the suffix is only split off when it parses as
      // a positive integer, so paths containing ':' keep working.
      size_t Colon = V.rfind(':');
      if (Colon != std::string::npos && Colon + 1 < V.size()) {
        char *End = nullptr;
        long long N = std::strtoll(V.c_str() + Colon + 1, &End, 10);
        if (End && *End == '\0' && N >= 1) {
          O.MetricsEvery = static_cast<size_t>(N);
          V.resize(Colon);
        }
      }
      if (V.empty())
        usageError("--metrics requires a file");
      O.MetricsFile = V;
    } else if (A == "--metrics-scope") {
      if (I + 1 >= argc)
        usageError("--metrics-scope requires 'live' or 'deterministic'");
      std::string V = argv[++I];
      if (V != "live" && V != "deterministic")
        usageError("--metrics-scope requires 'live' or 'deterministic'");
      O.MetricsDeterministic = V == "deterministic";
    } else if (A == "--stats") {
      O.Stats = true;
    } else if (A == "--trace") {
      if (I + 1 >= argc)
        usageError("--trace requires a file");
      O.TraceFile = argv[++I];
    } else if (A == "--log") {
      if (I + 1 >= argc)
        usageError("--log requires a file");
      O.LogFile = argv[++I];
    } else {
      usageError(concat("unknown option '", A, "'",
                        didYouMean(A, OptionTable)));
    }
  }
  return O;
}

bool writeTextFile(const std::string &Path, const std::string &Content) {
  std::ofstream F(Path, std::ios::binary);
  if (!F) {
    err("sestd: cannot write '" + Path + "'\n");
    return false;
  }
  F << Content;
  return F.good();
}

/// Periodic metrics snapshots (--metrics FILE[:EVERY_N]): the service's
/// cumulative exposition plus one rolling-window delta, rewritten
/// atomically-enough (truncate + write) every EVERY_N requests and once
/// at exit. Ticks are requests served — never wall-clock — so for a
/// fixed request stream the snapshot sequence is deterministic; with
/// --metrics-scope deterministic the snapshot bytes are too.
struct MetricsSink {
  MetricsSink(const Options &Opts, service::Service &Service)
      : O(Opts), Svc(Service) {}

  const Options &O;
  service::Service &Svc;
  uint64_t Served = 0;
  uint64_t LastSnapAt = 0;
  obs::RollingWindow Window;

  bool enabled() const { return !O.MetricsFile.empty(); }

  /// Max requests the current batch may take before it would cross a
  /// snapshot boundary. Capping batches here keeps snapshots at exact
  /// EVERY_N multiples regardless of how stdin happened to be buffered,
  /// which is what makes the window sequence reproducible.
  size_t batchLimit() const {
    if (!enabled())
      return O.MaxBatch;
    size_t ToBoundary = O.MetricsEvery - (Served - LastSnapAt);
    return std::min(O.MaxBatch, ToBoundary);
  }

  void onServed(size_t N) {
    if (!enabled() || N == 0)
      return;
    Served += N;
    if (Served - LastSnapAt >= O.MetricsEvery)
      snapshot();
  }

  void snapshot() {
    LastSnapAt = Served;
    std::string Text = Svc.metricsExposition(O.MetricsDeterministic);
    if (obs::Telemetry *T = obs::Telemetry::active()) {
      obs::ExportOptions WO;
      WO.DeterministicOnly = O.MetricsDeterministic;
      Text += obs::renderPrometheus(Window.advance(*T, Served), WO);
    }
    writeTextFile(O.MetricsFile, Text);
  }
};

/// The longest request line sestd takes in. A longer line is answered
/// with an in-band error, in request order, and its bytes are dropped up
/// to the next newline, so no client can make a line buffer grow without
/// bound.
constexpr size_t MaxLineBytes = 16u << 20;

/// The request reader of both front ends: read(2) into one buffer,
/// split on '\n'.
class LineReader {
public:
  explicit LineReader(int Fd) : Fd(Fd) {}

  /// One batch of request lines.
  struct Batch {
    std::vector<std::string> Lines;
    /// A line over MaxLineBytes came right after Lines.
    bool Oversized = false;
  };

  /// Fills \p B with every complete line already received plus whatever
  /// can be read without blocking, up to \p Max lines (an over-long line
  /// takes a slot and ends the batch). Blocks only while no complete
  /// line is buffered, so an interactive client gets each answer at
  /// once. Returns false when the stream has ended and nothing is left.
  bool next(Batch &B, size_t Max) {
    B.Lines.clear();
    B.Oversized = false;
    for (;;) {
      if (take(B, Max))
        return true;
      const bool Waiting = !B.Lines.empty();
      if (Eof) {
        // A last line without its newline still counts.
        if (!Dropping && Pos < Buf.size())
          push(B, Buf.size());
        Buf.clear();
        Pos = Scanned = 0;
        return Waiting || !B.Lines.empty();
      }
      if (Waiting && !readable())
        return true;
      fill();
    }
  }

private:
  /// Moves complete lines into \p B; true when the batch is done (full,
  /// or ended by an over-long line), false when the buffer has no
  /// further complete line.
  bool take(Batch &B, size_t Max) {
    while (B.Lines.size() < Max) {
      const void *Hit =
          std::memchr(Buf.data() + Scanned, '\n', Buf.size() - Scanned);
      if (!Hit) {
        Scanned = Buf.size();
        if (!Dropping && Buf.size() - Pos <= MaxLineBytes)
          return false;
        // The line in progress is (or already was) too long: keep none
        // of it, and answer it only once.
        const bool Answer = !Dropping;
        Dropping = true;
        Buf.clear();
        Pos = Scanned = 0;
        B.Oversized = Answer;
        return Answer;
      }
      const size_t Nl = static_cast<const char *>(Hit) - Buf.data();
      Scanned = Nl + 1;
      if (Dropping) {
        Dropping = false;
      } else if (Nl - Pos > MaxLineBytes) {
        B.Oversized = true;
        Pos = Scanned;
        return true;
      } else {
        push(B, Nl);
      }
      Pos = Scanned;
    }
    return true;
  }

  /// Adds the line [Pos, End), less a trailing '\r'; blank lines are
  /// skipped.
  void push(Batch &B, size_t End) {
    if (End > Pos && Buf[End - 1] == '\r')
      --End;
    if (End > Pos)
      B.Lines.emplace_back(Buf, Pos, End - Pos);
  }

  bool readable() const {
    pollfd P{Fd, POLLIN, 0};
    return ::poll(&P, 1, 0) > 0;
  }

  /// One read(2) into the buffer, after dropping the lines consumed.
  void fill() {
    Buf.erase(0, Pos);
    Scanned -= Pos;
    Pos = 0;
    char Chunk[64 << 10];
    ssize_t N;
    do
      N = ::read(Fd, Chunk, sizeof(Chunk));
    while (N < 0 && errno == EINTR);
    if (N <= 0)
      Eof = true;
    else
      Buf.append(Chunk, static_cast<size_t>(N));
  }

  int Fd;
  std::string Buf;
  size_t Pos = 0;     ///< Start of the first line not yet taken.
  size_t Scanned = 0; ///< Buf[Pos, Scanned) holds no newline.
  bool Dropping = false; ///< Skipping an over-long line's remaining bytes.
  bool Eof = false;
};

bool writeAll(int Fd, const std::string &S) {
  for (size_t Off = 0; Off < S.size();) {
    ssize_t N = ::write(Fd, S.data() + Off, S.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Serves one stream (stdin/stdout, or one socket client) until it ends
/// or a shutdown request has been answered. Each batch runs through the
/// service together, and its responses go out in one write.
void serveStream(service::Service &Svc, MetricsSink &Sink, int InFd,
                 int OutFd) {
  LineReader Reader(InFd);
  LineReader::Batch B;
  std::string Out;
  while (!Svc.shutdownRequested() && Reader.next(B, Sink.batchLimit())) {
    Out.clear();
    if (!B.Lines.empty())
      for (const std::string &Resp : Svc.handleBatch(B.Lines)) {
        Out += Resp;
        Out += '\n';
      }
    if (B.Oversized) {
      Out += Svc.reject("request line exceeds the " +
                        std::to_string(MaxLineBytes) + "-byte limit");
      Out += '\n';
    }
    const bool Written = writeAll(OutFd, Out);
    Sink.onServed(B.Lines.size() + B.Oversized);
    if (!Written)
      return;
  }
}

/// Unix-socket mode: one client at a time; each connection streams the
/// same newline-delimited protocol. The listener closes after a
/// shutdown request (or SIGTERM from outside).
int serveSocket(const Options &O, service::Service &Svc,
                MetricsSink &Sink) {
  int Listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Listener < 0) {
    err("sestd: socket() failed\n");
    return 1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (O.SocketPath.size() >= sizeof(Addr.sun_path)) {
    err("sestd: socket path too long\n");
    ::close(Listener);
    return 1;
  }
  std::strncpy(Addr.sun_path, O.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  ::unlink(O.SocketPath.c_str());
  if (::bind(Listener, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) < 0 ||
      ::listen(Listener, 8) < 0) {
    err("sestd: cannot listen on '" + O.SocketPath + "'\n");
    ::close(Listener);
    return 1;
  }
  err("sestd: listening on " + O.SocketPath + "\n");

  while (!Svc.shutdownRequested()) {
    int Client = ::accept(Listener, nullptr, nullptr);
    if (Client < 0)
      break;
    serveStream(Svc, Sink, Client, Client);
    ::close(Client);
  }
  ::close(Listener);
  ::unlink(O.SocketPath.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  Options O = parseArgs(argc, argv);

  // Telemetry is always collected: the `stats` request embeds the live
  // report (request latency histograms, cache counters, phase tree).
  // Spans are kept only for --trace: nothing else reads them, and a
  // server would otherwise grow by one span per request and batch.
  obs::Telemetry Tele;
  Tele.setKeepSpans(!O.TraceFile.empty());
  Tele.install();
  obs::EventLog Log;
  if (!O.LogFile.empty())
    Log.install();

  service::Service Svc(O.Svc);
  MetricsSink Sink{O, Svc};
  int Rc = 0;
  if (!O.SocketPath.empty())
    Rc = serveSocket(O, Svc, Sink);
  else
    serveStream(Svc, Sink, STDIN_FILENO, STDOUT_FILENO);
  // Final snapshot: always written (even for an empty session), so a
  // --metrics file exists and reflects the whole run at exit.
  if (Sink.enabled())
    Sink.snapshot();

  if (!O.LogFile.empty()) {
    Log.uninstall();
    if (!writeTextFile(O.LogFile, Log.jsonl()))
      Rc = 1;
  }
  Tele.uninstall();
  if (O.Stats)
    err("\n-- phase times --\n" + Tele.phaseSummary() +
        "\n-- counters --\n" + Tele.statsTable());
  if (!O.TraceFile.empty() &&
      !writeTextFile(O.TraceFile, Tele.traceJson()))
    Rc = 1;
  return Rc;
}
