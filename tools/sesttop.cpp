//===- tools/sesttop.cpp - Live metrics console for sestd ------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sesttop — a terminal dashboard over sestd's Prometheus exposition.
/// Scrapes the `metrics` verb of a running server (--socket), a server
/// it spawns itself (--spawn), or a snapshot file written by
/// `sestd --metrics` (--file), and renders request throughput, per-verb
/// latency percentiles, per-tier cache hit ratios, and queue depth as
/// aligned tables. Also the CLI front for the in-tree exposition lint
/// (--lint).
///
/// `--once` renders a single frame with no wall-clock-derived values
/// (req/s is shown as "-"), so its output is reproducible for a fixed
/// exposition — the mode the ctest/CI checks drive.
///
//===----------------------------------------------------------------------===//

#include "obs/Export.h"
#include "support/CliOptions.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/TextTable.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace sest;

namespace {

void out(const std::string &S) { std::fputs(S.c_str(), stdout); }
void err(const std::string &S) { std::fputs(S.c_str(), stderr); }

/// The options sesttop understands; generates the usage text (same
/// single-source-of-truth scheme as sestc/sestd).
const OptionSpec OptionTable[] = {
    {"--socket", "PATH", "scrape a running sestd on this Unix socket"},
    {"--spawn", "BIN",
     "spawn BIN (a sestd binary) on pipes and scrape it directly"},
    {"--replay", "FILE",
     "send these request lines to the server before the first scrape"},
    {"--file", "FILE",
     "render a snapshot file written by sestd --metrics instead of "
     "scraping"},
    {"--lint", "FILE",
     "run the exposition format lint over FILE and exit (nonzero on "
     "findings)"},
    {"--once", nullptr,
     "render one frame and exit; omits wall-clock rates so output is "
     "reproducible"},
    {"--interval-ms", "N", "refresh interval between frames (default 1000)"},
    {"--count", "N", "stop after N frames (default: run until EOF/error)"},
    {"--help", nullptr, "print this help and exit"},
};

std::string helpText() {
  return renderHelp("usage: sesttop (--socket PATH | --spawn BIN | --file "
                    "FILE | --lint FILE) [options]",
                    OptionTable, 25);
}

struct Options {
  std::string SocketPath;
  std::string SpawnBin;
  std::string ReplayFile;
  std::string SnapshotFile;
  std::string LintFile;
  bool Once = false;
  long IntervalMs = 1000;
  long Count = 0; ///< 0 = unbounded.
};

[[noreturn]] void usageError(const std::string &Message) {
  err("sesttop: " + Message + "\n" + helpText());
  std::exit(2);
}

Options parseArgs(int argc, char **argv) {
  Options O;
  auto StringArg = [&](int &I, const char *Flag) -> std::string {
    if (I + 1 >= argc)
      usageError(std::string(Flag) + " requires a value");
    return argv[++I];
  };
  auto NumberArg = [&](int &I, const char *Flag) -> long {
    std::string V = StringArg(I, Flag);
    char *End = nullptr;
    long N = std::strtol(V.c_str(), &End, 10);
    if (!End || *End != '\0' || N < 0)
      usageError(std::string(Flag) + " requires a non-negative integer");
    return N;
  };
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--help") {
      out(helpText());
      std::exit(0);
    } else if (A == "--socket") {
      O.SocketPath = StringArg(I, "--socket");
    } else if (A == "--spawn") {
      O.SpawnBin = StringArg(I, "--spawn");
    } else if (A == "--replay") {
      O.ReplayFile = StringArg(I, "--replay");
    } else if (A == "--file") {
      O.SnapshotFile = StringArg(I, "--file");
    } else if (A == "--lint") {
      O.LintFile = StringArg(I, "--lint");
    } else if (A == "--once") {
      O.Once = true;
    } else if (A == "--interval-ms") {
      O.IntervalMs = NumberArg(I, "--interval-ms");
      if (O.IntervalMs < 1)
        usageError("--interval-ms requires N >= 1");
    } else if (A == "--count") {
      O.Count = NumberArg(I, "--count");
    } else {
      usageError(concat("unknown option '", A, "'",
                        didYouMean(A, OptionTable)));
    }
  }
  int Sources = (!O.SocketPath.empty()) + (!O.SpawnBin.empty()) +
                (!O.SnapshotFile.empty()) + (!O.LintFile.empty());
  if (Sources == 0)
    usageError("one of --socket, --spawn, --file, or --lint is required");
  if (Sources > 1)
    usageError("--socket, --spawn, --file, and --lint are exclusive");
  if (!O.ReplayFile.empty() && O.SocketPath.empty() && O.SpawnBin.empty())
    usageError("--replay needs a live server (--socket or --spawn)");
  return O;
}

bool readTextFile(const std::string &Path, std::string &Content) {
  std::ifstream F(Path, std::ios::binary);
  if (!F)
    return false;
  std::ostringstream SS;
  SS << F.rdbuf();
  Content = SS.str();
  return true;
}

//===----------------------------------------------------------------------===//
// Scrape sources — each yields the exposition text of one frame.
//===----------------------------------------------------------------------===//

/// A newline-delimited protocol connection to a sestd instance: one
/// request line out, one response line back, in order.
class ServerConnection {
public:
  virtual ~ServerConnection() = default;
  /// Sends \p Line (newline appended) and returns the response line, or
  /// nullopt when the connection is gone.
  virtual std::optional<std::string> roundTrip(const std::string &Line) = 0;
};

#ifndef _WIN32

/// Talks to sestd over a connected stream: an AF_UNIX socket (both
/// directions on one fd) or a spawned child (separate pipe fds).
class FdConnection : public ServerConnection {
public:
  FdConnection(int WriteFd, int ReadFd, pid_t Child = -1)
      : WriteFd(WriteFd), ReadFd(ReadFd), Child(Child) {}

  ~FdConnection() override {
    if (WriteFd >= 0)
      close(WriteFd);
    if (ReadFd >= 0 && ReadFd != WriteFd)
      close(ReadFd);
    if (Child > 0)
      waitpid(Child, nullptr, 0);
  }

  std::optional<std::string> roundTrip(const std::string &Line) override {
    std::string Out = Line + "\n";
    size_t Sent = 0;
    while (Sent < Out.size()) {
      ssize_t N = write(WriteFd, Out.data() + Sent, Out.size() - Sent);
      if (N <= 0)
        return std::nullopt;
      Sent += static_cast<size_t>(N);
    }
    return readLine();
  }

private:
  std::optional<std::string> readLine() {
    std::string Line;
    while (true) {
      size_t NL = Buffer.find('\n');
      if (NL != std::string::npos) {
        Line = Buffer.substr(0, NL);
        Buffer.erase(0, NL + 1);
        return Line;
      }
      char Chunk[4096];
      ssize_t N = read(ReadFd, Chunk, sizeof(Chunk));
      if (N <= 0)
        return std::nullopt;
      Buffer.append(Chunk, static_cast<size_t>(N));
    }
  }

  int WriteFd;
  int ReadFd;
  pid_t Child;
  std::string Buffer;
};

std::unique_ptr<ServerConnection> connectSocket(const std::string &Path) {
  int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    err("sesttop: socket: " + std::string(std::strerror(errno)) + "\n");
    return nullptr;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    err("sesttop: socket path too long\n");
    close(Fd);
    return nullptr;
  }
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    err("sesttop: connect '" + Path + "': " +
        std::string(std::strerror(errno)) + "\n");
    close(Fd);
    return nullptr;
  }
  return std::make_unique<FdConnection>(Fd, Fd);
}

std::unique_ptr<ServerConnection> spawnServer(const std::string &Bin) {
  int ToChild[2], FromChild[2];
  if (pipe(ToChild) < 0 || pipe(FromChild) < 0) {
    err("sesttop: pipe: " + std::string(std::strerror(errno)) + "\n");
    return nullptr;
  }
  pid_t Pid = fork();
  if (Pid < 0) {
    err("sesttop: fork: " + std::string(std::strerror(errno)) + "\n");
    return nullptr;
  }
  if (Pid == 0) {
    dup2(ToChild[0], STDIN_FILENO);
    dup2(FromChild[1], STDOUT_FILENO);
    close(ToChild[0]);
    close(ToChild[1]);
    close(FromChild[0]);
    close(FromChild[1]);
    execl(Bin.c_str(), Bin.c_str(), static_cast<char *>(nullptr));
    std::fprintf(stderr, "sesttop: exec '%s': %s\n", Bin.c_str(),
                 std::strerror(errno));
    _exit(127);
  }
  close(ToChild[0]);
  close(FromChild[1]);
  return std::make_unique<FdConnection>(ToChild[1], FromChild[0], Pid);
}

#endif // !_WIN32

/// Sends every non-empty line of \p Path to the server and drains the
/// responses, so a subsequent metrics scrape reflects that traffic.
bool replayRequests(ServerConnection &Conn, const std::string &Path) {
  std::string Text;
  if (!readTextFile(Path, Text)) {
    err("sesttop: cannot read '" + Path + "'\n");
    return false;
  }
  size_t Start = 0, Sent = 0;
  while (Start <= Text.size()) {
    size_t NL = Text.find('\n', Start);
    std::string Line = Text.substr(
        Start, NL == std::string::npos ? std::string::npos : NL - Start);
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (!Line.empty()) {
      if (!Conn.roundTrip(Line)) {
        err("sesttop: server closed during --replay\n");
        return false;
      }
      ++Sent;
    }
    if (NL == std::string::npos)
      break;
    Start = NL + 1;
  }
  err("sesttop: replayed " + std::to_string(Sent) + " request(s)\n");
  return true;
}

/// Scrapes one exposition from a live server via the `metrics` verb.
std::optional<std::string> scrapeServer(ServerConnection &Conn) {
  auto Resp = Conn.roundTrip("{\"op\":\"metrics\"}");
  if (!Resp)
    return std::nullopt;
  auto Doc = parseJson(*Resp);
  if (!Doc) {
    err("sesttop: server sent a non-JSON response\n");
    return std::nullopt;
  }
  const JsonValue *Result = Doc->find("result");
  const JsonValue *Expo = Result ? Result->find("exposition") : nullptr;
  if (!Expo || !Expo->isString()) {
    err("sesttop: metrics response has no result.exposition\n");
    return std::nullopt;
  }
  return Expo->StringVal;
}

//===----------------------------------------------------------------------===//
// Dashboard rendering
//===----------------------------------------------------------------------===//

std::string fmtNumber(double V) { return obs::promNumber(V); }

std::string fmtBytes(double V) {
  const char *Units[] = {"B", "KiB", "MiB", "GiB"};
  int U = 0;
  while (V >= 1024.0 && U < 3) {
    V /= 1024.0;
    ++U;
  }
  return (U == 0 ? obs::promNumber(V) : formatDouble(V, 1)) + " " + Units[U];
}

std::string fmtRatio(double Hits, double Misses) {
  double Total = Hits + Misses;
  if (Total <= 0.0)
    return "-";
  return formatDouble(100.0 * Hits / Total, 1) + "%";
}

/// Everything one frame shows, extracted from one parsed exposition.
struct Frame {
  double Requests = 0.0;
  double BadRequests = 0.0;
  double Batches = 0.0;
  double QueueDepth = 0.0;
  bool HasWindow = false;
  double WindowTick = 0.0;
  double WindowRequests = 0.0;
  /// verb -> (count, p50, p99); -1 marks an absent percentile.
  struct Verb {
    std::string Name;
    double Count = 0.0;
    double P50 = -1.0;
    double P99 = -1.0;
  };
  std::vector<Verb> Verbs;
  struct Tier {
    std::string Name;
    double Hits = 0.0, Misses = 0.0, Evictions = 0.0, Bytes = 0.0,
           Entries = 0.0;
  };
  std::vector<Tier> Tiers;
};

Frame extractFrame(const obs::PromDocument &Doc) {
  Frame F;
  F.Requests = Doc.valueOr("sest_service_requests", 0.0);
  F.BadRequests = Doc.valueOr("sest_service_requests_bad", 0.0);
  F.Batches = Doc.valueOr("sest_service_batches", 0.0);
  F.QueueDepth = Doc.valueOr("sest_service_batch_depth", 0.0);
  if (Doc.find("sest_window_tick")) {
    F.HasWindow = true;
    F.WindowTick = Doc.valueOr("sest_window_tick", 0.0);
    F.WindowRequests = Doc.valueOr("sest_service_requests_delta", 0.0);
  }

  const std::string VerbPrefix = "sest_service_requests_";
  const std::string TierPrefix = "sest_service_cache_";
  for (const obs::PromSample &S : Doc.Samples) {
    if (startsWith(S.Name, VerbPrefix)) {
      std::string Verb = S.Name.substr(VerbPrefix.size());
      // "bad" is shown in the header; "delta" / "<verb>_delta" are the
      // windowed series from a snapshot file's window section.
      if (Verb == "bad" || Verb == "delta" ||
          Verb.find('_') != std::string::npos)
        continue;
      Frame::Verb V;
      V.Name = Verb;
      V.Count = S.Value;
      V.P50 =
          Doc.valueOr("sest_service_request_us_" + Verb + "_p50", -1.0);
      V.P99 =
          Doc.valueOr("sest_service_request_us_" + Verb + "_p99", -1.0);
      F.Verbs.push_back(std::move(V));
    } else if (startsWith(S.Name, TierPrefix) &&
               S.Name.size() > 5 &&
               S.Name.compare(S.Name.size() - 5, 5, "_hits") == 0) {
      std::string Tier =
          S.Name.substr(TierPrefix.size(),
                        S.Name.size() - TierPrefix.size() - 5);
      std::string Base = TierPrefix + Tier + "_";
      Frame::Tier T;
      T.Name = Tier;
      T.Hits = S.Value;
      T.Misses = Doc.valueOr(Base + "misses", 0.0);
      T.Evictions = Doc.valueOr(Base + "evictions", 0.0);
      T.Bytes = Doc.valueOr(Base + "bytes", 0.0);
      T.Entries = Doc.valueOr(Base + "entries", 0.0);
      F.Tiers.push_back(std::move(T));
    }
  }
  return F;
}

/// Renders one dashboard frame. \p Rps < 0 means "unknown" (first frame
/// or --once mode) and prints as "-".
std::string renderFrame(const Frame &F, double Rps) {
  std::string S;
  S += "sesttop — sest-service/1\n";
  S += "  requests " + fmtNumber(F.Requests);
  S += "  bad " + fmtNumber(F.BadRequests);
  S += "  batches " + fmtNumber(F.Batches);
  S += "  queue-depth " + fmtNumber(F.QueueDepth);
  S += "  req/s " + (Rps < 0.0 ? std::string("-") : formatDouble(Rps, 4));
  S += "\n";
  if (F.HasWindow)
    S += "  window: tick " + fmtNumber(F.WindowTick) + ", requests " +
         fmtNumber(F.WindowRequests) + "\n";
  S += "\n";

  TextTable Verbs;
  Verbs.setHeader({"verb", "requests", "p50(us)", "p99(us)"});
  for (const Frame::Verb &V : F.Verbs)
    Verbs.addRow({V.Name, fmtNumber(V.Count),
                  V.P50 < 0.0 ? "-" : fmtNumber(V.P50),
                  V.P99 < 0.0 ? "-" : fmtNumber(V.P99)});
  if (Verbs.rowCount() == 0)
    Verbs.addRow({"(none)", "0", "-", "-"});
  S += Verbs.str() + "\n";

  TextTable Tiers;
  Tiers.setHeader(
      {"tier", "hits", "misses", "hit%", "evictions", "bytes", "entries"});
  for (const Frame::Tier &T : F.Tiers)
    Tiers.addRow({T.Name, fmtNumber(T.Hits), fmtNumber(T.Misses),
                  fmtRatio(T.Hits, T.Misses), fmtNumber(T.Evictions),
                  fmtBytes(T.Bytes), fmtNumber(T.Entries)});
  if (Tiers.rowCount())
    S += Tiers.str();
  else
    S += "  (no cache tiers in exposition — deterministic scope?)\n";
  return S;
}

int lintFile(const std::string &Path) {
  std::string Text;
  if (!readTextFile(Path, Text)) {
    err("sesttop: cannot read '" + Path + "'\n");
    return 1;
  }
  std::vector<std::string> Findings = obs::lintPrometheus(Text);
  for (const std::string &F : Findings)
    err("sesttop: lint: " + F + "\n");
  if (!Findings.empty()) {
    err("sesttop: " + Path + ": " + std::to_string(Findings.size()) +
        " finding(s)\n");
    return 1;
  }
  out("sesttop: " + Path + ": exposition is clean\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  Options O = parseArgs(argc, argv);

  if (!O.LintFile.empty())
    return lintFile(O.LintFile);

  std::unique_ptr<ServerConnection> Conn;
  if (!O.SocketPath.empty() || !O.SpawnBin.empty()) {
#ifndef _WIN32
    Conn = O.SocketPath.empty() ? spawnServer(O.SpawnBin)
                                : connectSocket(O.SocketPath);
    if (!Conn)
      return 1;
    if (!O.ReplayFile.empty() && !replayRequests(*Conn, O.ReplayFile))
      return 1;
#else
    err("sesttop: --socket/--spawn are not supported on this platform\n");
    return 1;
#endif
  }

  bool HavePrev = false;
  double PrevRequests = 0.0;
  auto PrevTime = std::chrono::steady_clock::now();
  long Frames = 0;
  while (true) {
    std::string Text;
    if (Conn) {
      auto Scraped = scrapeServer(*Conn);
      if (!Scraped) {
        if (Frames == 0)
          err("sesttop: no exposition scraped\n");
        return Frames == 0 ? 1 : 0; // server gone after frames = clean exit
      }
      Text = *Scraped;
    } else if (!readTextFile(O.SnapshotFile, Text)) {
      err("sesttop: cannot read '" + O.SnapshotFile + "'\n");
      return 1;
    }

    std::string Error;
    auto Doc = obs::parsePrometheus(Text, &Error);
    if (!Doc) {
      err("sesttop: bad exposition: " + Error + "\n");
      return 1;
    }
    Frame F = extractFrame(*Doc);

    double Rps = -1.0;
    auto Now = std::chrono::steady_clock::now();
    if (!O.Once && HavePrev) {
      double Secs =
          std::chrono::duration<double>(Now - PrevTime).count();
      if (Secs > 0.0)
        Rps = (F.Requests - PrevRequests) / Secs;
    }
    PrevRequests = F.Requests;
    PrevTime = Now;
    HavePrev = true;

    if (!O.Once && Frames > 0)
      out("\x1b[2J\x1b[H"); // clear + home between live frames
    out(renderFrame(F, Rps));
    std::fflush(stdout);

    ++Frames;
    if (O.Once || (O.Count > 0 && Frames >= O.Count))
      return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(O.IntervalMs));
  }
}
