//===- bench/bench_service.cpp - Service throughput cold vs warm ----------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Million-request throughput bench for the sestd analysis service: a
/// zipfian stream of requests over a pool of genprog-shaped programs
/// (the shared workload model in BenchCommon.h), executed batched
/// through service::Service twice —
///
///   cold: memoization disabled (cache budget 0), a sampled prefix of
///         the stream, every request pays the full pipeline;
///   warm: the full stream against a cached service, so all but the
///         first occurrence of each distinct request is a cache hit.
///
/// Reports throughput (requests/s) and p50/p90/p99 request latency for
/// both phases (from the service.request_us histogram the service
/// records into the installed Telemetry), the warm-over-cold speedup,
/// and the warm service's per-tier cache counters.
///
/// `--json FILE` writes the sest-service-throughput/1 artifact;
/// the checked-in baseline lives at bench/service_throughput.json and
/// scripts/check_perf.py enforces the >= 5x warm-over-cold floor.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "obs/Parallel.h"
#include "obs/Telemetry.h"
#include "service/Service.h"

#include <chrono>
#include <cstring>

using namespace sest;
using namespace sest::bench;

namespace {

using Clock = std::chrono::steady_clock;

/// The four service operations the mix draws from, in a fixed order so
/// (program, op, variant) maps to a dense unique-request index.
constexpr const char *Ops[] = {"estimate", "parse", "optimize", "report"};
constexpr size_t NumOps = sizeof(Ops) / sizeof(Ops[0]);
constexpr unsigned NumVariants = 4;

size_t opIndex(const char *Op) {
  for (size_t I = 0; I < NumOps; ++I)
    if (std::strcmp(Ops[I], Op) == 0)
      return I;
  return 0;
}

/// Renders the request line for one (program, op, variant) triple. The
/// variant picks an options/passes/seed flavor so repeats of the same
/// program still exercise several distinct cache keys per tier.
std::string renderRequest(uint64_t Id, const std::string &Source,
                          const char *Op, unsigned Variant) {
  JsonWriter W;
  W.beginObject();
  W.member("id", Id);
  W.member("op", Op);
  W.member("source", Source);
  std::string_view OpView = Op;
  if (OpView == "estimate") {
    switch (Variant) {
    case 0:
      break; // default options
    case 1:
      W.key("options").beginObject();
      W.member("intra", "markov").member("inter", "markov");
      W.endObject();
      break;
    case 2:
      W.key("options").beginObject();
      W.member("loop_iterations", static_cast<uint64_t>(16));
      W.endObject();
      break;
    default:
      W.member("blocks", true);
      break;
    }
  } else if (OpView == "optimize") {
    static const char *PassesByVariant[] = {"all", "layout", "inline",
                                            "all"};
    W.member("passes", PassesByVariant[Variant % 4]);
    if (Variant == 3) {
      W.key("options").beginObject();
      W.member("taken_probability", 0.8);
      W.endObject();
    }
  } else if (OpView == "report") {
    W.member("input", "");
    W.member("seed", static_cast<uint64_t>(1 + Variant));
  }
  // parse: the variants collapse onto one semantic cache key, which is
  // exactly what repeated parses of a hot source look like.
  W.endObject();
  return W.take();
}

struct PhaseResult {
  uint64_t Requests = 0;
  uint64_t BadResponses = 0;
  double Seconds = 0.0;
  double Rps = 0.0;
  obs::HistogramStats Latency;
};

/// Feeds stream positions [Begin, End) through \p S in batches,
/// timing the whole phase and collecting per-request latency from the
/// service.request_us histogram.
PhaseResult runPhase(service::Service &S,
                     const std::vector<std::string> &Lines,
                     const std::vector<uint32_t> &Stream, size_t Begin,
                     size_t End, size_t BatchSize) {
  PhaseResult R;
  obs::Telemetry T;
  T.install();
  Clock::time_point Start = Clock::now();
  std::vector<std::string> Batch;
  for (size_t I = Begin; I < End;) {
    size_t N = std::min(BatchSize, End - I);
    Batch.clear();
    Batch.reserve(N);
    for (size_t J = 0; J < N; ++J)
      Batch.push_back(Lines[Stream[I + J]]);
    std::vector<std::string> Responses = S.handleBatch(Batch);
    for (const std::string &Resp : Responses)
      if (Resp.find("\"ok\":false") != std::string::npos)
        ++R.BadResponses;
    I += N;
  }
  R.Seconds =
      std::chrono::duration<double>(Clock::now() - Start).count();
  T.uninstall();
  R.Requests = End - Begin;
  R.Rps = R.Seconds > 0 ? static_cast<double>(R.Requests) / R.Seconds
                        : 0.0;
  auto It = T.histograms().find("service.request_us");
  if (It != T.histograms().end())
    R.Latency = It->second;
  return R;
}

void addPhaseRow(TextTable &T, const char *Name, const PhaseResult &R) {
  T.addRow({Name, std::to_string(R.Requests), formatDouble(R.Seconds, 2),
            formatDouble(R.Rps, 0), formatDouble(R.Latency.p50(), 1),
            formatDouble(R.Latency.p90(), 1),
            formatDouble(R.Latency.p99(), 1)});
}

void writePhase(JsonWriter &W, const char *Name, const PhaseResult &R) {
  W.key(Name).beginObject();
  W.member("requests", R.Requests)
      .member("bad_responses", R.BadResponses)
      .member("seconds", R.Seconds)
      .member("rps", R.Rps)
      .member("p50_us", R.Latency.p50())
      .member("p90_us", R.Latency.p90())
      .member("p99_us", R.Latency.p99());
  W.endObject();
}

} // namespace

int main(int argc, char **argv) {
  size_t Requests = 1000000;
  size_t ColdRequests = 2000;
  size_t BatchSize = 256;
  unsigned Jobs = 0; // hardware concurrency
  WorkloadConfig WC;
  std::string JsonPath;
  for (int I = 1; I + 1 < argc; ++I) {
    std::string_view Arg = argv[I];
    if (Arg == "--json")
      JsonPath = argv[I + 1];
    else if (Arg == "--requests")
      Requests = std::strtoull(argv[I + 1], nullptr, 10);
    else if (Arg == "--cold-requests")
      ColdRequests = std::strtoull(argv[I + 1], nullptr, 10);
    else if (Arg == "--batch")
      BatchSize = std::strtoull(argv[I + 1], nullptr, 10);
    else if (Arg == "--jobs")
      Jobs = static_cast<unsigned>(std::strtoul(argv[I + 1], nullptr, 10));
    else if (Arg == "--pool")
      WC.PoolSize = std::strtoull(argv[I + 1], nullptr, 10);
    else if (Arg == "--blocks")
      WC.TargetBlocks = std::strtoull(argv[I + 1], nullptr, 10);
    else if (Arg == "--seed")
      WC.Seed = std::strtoull(argv[I + 1], nullptr, 10);
  }
  if (BatchSize == 0)
    BatchSize = 1;
  ColdRequests = std::min(ColdRequests, Requests);
  unsigned ResolvedJobs = obs::parallelWorkers(Jobs, BatchSize);

  out("== Service throughput: cold vs warm over a zipfian request mix "
      "==\n\n");
  out("pool " + std::to_string(WC.PoolSize) + " programs x " +
      std::to_string(WC.TargetBlocks) + " blocks, " +
      std::to_string(Requests) + " requests, batch " +
      std::to_string(BatchSize) + ", jobs " +
      std::to_string(ResolvedJobs) + "\n\n");

  // Unique request lines: every (program, op, variant) rendered once,
  // the zipfian stream indexes into them.
  std::vector<std::string> Sources = syntheticSourcePool(WC);
  std::vector<std::string> Lines(Sources.size() * NumOps * NumVariants);
  for (size_t P = 0; P < Sources.size(); ++P)
    for (size_t O = 0; O < NumOps; ++O)
      for (unsigned V = 0; V < NumVariants; ++V) {
        size_t Idx = (P * NumOps + O) * NumVariants + V;
        Lines[Idx] = renderRequest(Idx, Sources[P], Ops[O], V);
      }

  RequestStream Stream(Sources.size(), defaultRequestMix(), WC.Seed);
  std::vector<uint32_t> StreamIdx(Requests);
  for (uint32_t &Idx : StreamIdx) {
    SampledRequest R = Stream.next();
    Idx = static_cast<uint32_t>(
        (R.Program * NumOps + opIndex(R.Op)) * NumVariants + R.Variant);
  }

  // Cold: memoization off, every request recomputes the full pipeline.
  service::ServiceOptions ColdOpts;
  ColdOpts.Jobs = Jobs;
  ColdOpts.CacheBudgetBytes = 0;
  PhaseResult Cold;
  {
    service::Service S(ColdOpts);
    Cold = runPhase(S, Lines, StreamIdx, 0, ColdRequests, BatchSize);
  }

  // Warm: the full stream against one cached service. The first
  // occurrence of each distinct request misses (the self-warming
  // prefix); everything after answers from the response tier.
  service::ServiceOptions WarmOpts;
  WarmOpts.Jobs = Jobs;
  PhaseResult Warm;
  service::Service WarmService(WarmOpts);
  Warm = runPhase(WarmService, Lines, StreamIdx, 0, Requests, BatchSize);

  double Speedup = Cold.Rps > 0 ? Warm.Rps / Cold.Rps : 0.0;

  TextTable T;
  T.setHeader({"Phase", "Requests", "Seconds", "Req/s", "P50 us",
               "P90 us", "P99 us"});
  addPhaseRow(T, "cold (no cache)", Cold);
  addPhaseRow(T, "warm (cached)", Warm);
  out(T.str());
  out("\nwarm-over-cold speedup: " + formatDouble(Speedup, 1) + "x\n");
  if (Cold.BadResponses || Warm.BadResponses)
    out("WARNING: " +
        std::to_string(Cold.BadResponses + Warm.BadResponses) +
        " ok:false responses in the mix\n");

  TextTable C;
  C.setHeader({"Tier", "Hits", "Misses", "Evictions", "Bytes",
               "Entries"});
  for (const service::ShardedCache *Tier : WarmService.caches().all()) {
    service::CacheTierStats St = Tier->stats();
    C.addRow({Tier->tier(), std::to_string(St.Hits),
              std::to_string(St.Misses), std::to_string(St.Evictions),
              std::to_string(St.Bytes), std::to_string(St.Entries)});
  }
  out("\n" + C.str());

  if (!JsonPath.empty()) {
    JsonWriter W;
    W.beginObject();
    W.member("schema", "sest-service-throughput/1");
    W.member("requests", static_cast<uint64_t>(Requests));
    W.member("pool", static_cast<uint64_t>(WC.PoolSize));
    W.member("target_blocks", static_cast<uint64_t>(WC.TargetBlocks));
    W.member("unique_requests", static_cast<uint64_t>(Lines.size()));
    W.member("batch", static_cast<uint64_t>(BatchSize));
    W.member("jobs", static_cast<uint64_t>(ResolvedJobs));
    writePhase(W, "cold", Cold);
    writePhase(W, "warm", Warm);
    W.member("warm_speedup", Speedup);
    W.key("cache").beginObject();
    for (const service::ShardedCache *Tier : WarmService.caches().all()) {
      service::CacheTierStats St = Tier->stats();
      W.key(Tier->tier()).beginObject();
      W.member("hit", St.Hits)
          .member("miss", St.Misses)
          .member("evict", St.Evictions)
          .member("bytes", St.Bytes)
          .member("entries", St.Entries);
      W.endObject();
    }
    W.endObject();
    W.endObject();
    std::ofstream OutFile(JsonPath);
    if (!OutFile) {
      out("bench: cannot write '" + JsonPath + "'\n");
      return 1;
    }
    OutFile << W.take();
    out("\nthroughput artifact written to " + JsonPath + "\n");
  }
  return 0;
}
