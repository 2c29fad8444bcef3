//===- service/Service.h - The sestd analysis service -----------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis-as-a-service core behind tools/sestd: newline-delimited
/// JSON requests in, newline-delimited JSON responses out, executed
/// batched on a thread pool and answered from a content-addressed
/// memoization cache so a repeated or overlapping request skips every
/// pipeline stage it has already paid for.
///
/// Protocol (`sest-service/1`, one JSON object per line; see
/// docs/SERVICE.md for the full schema):
///
///   {"op":"parse",    "source":"...", ["id":N]}
///   {"op":"estimate", "source":"...", ["options":{...}, "blocks":true]}
///   {"op":"optimize", "source":"...", ["passes":"layout|inline|all"]}
///   {"op":"report",   "source":"...", ["input":"...", "seed":N,
///                                       "engine":"ast|bytecode|native"]}
///   {"op":"tune",     "source":"...", ["input":"...", "budget":N,
///                                       "seed":N, "oracles":"static,...",
///                                       "engine":"ast|bytecode"]}
///   {"op":"stats"}          -> live telemetry + cache counters
///   {"op":"metrics"}        -> Prometheus text exposition
///                              (["scope":"live"|"deterministic"])
///   {"op":"health"}         -> liveness + config echo
///   {"op":"shutdown"}       -> acknowledge, then the server exits
///
/// stats / metrics / health / shutdown are *control ops*: they are
/// answered on the intake thread between parallel sub-batches, so a
/// metrics answer reflects exactly the requests that preceded it in
/// the stream, at every Jobs value.
///
/// Cache tiers (each a ShardedCache, keyed by the request's interned
/// source + the framed options that influence the artifact; the source
/// is interned once, when its request is decoded, and a hit compares
/// the whole key, never a digest alone):
///
///   ast       parsed+analyzed ASTs
///   cfg       CFGs + call graph (co-owns its AST entry)
///   branch    branch-prediction tables
///   solve     sparse-Markov solve results (whole ProgramEstimates)
///   native    loaded compile-to-C artifacts for engine:"native" reports
///             (compile failures are cached too — rejecting is as
///             deterministic as accepting)
///   response  rendered response bodies (optimizer plans and tune
///             reports included), keyed by op + source + the fields that
///             op reads (not the raw line)
///
/// Determinism contract (extends the repo-wide one to the service
/// layer): a request's response is byte-identical whether it is served
/// cold, warm, after any eviction history, at any batch split, and at
/// any Jobs value. This holds because every cached artifact is a
/// deterministic pure function of its key's content, responses embed no
/// wall-clock or cache-provenance data, and `stats` (the one
/// intentionally live, non-deterministic answer) is excluded from the
/// contract.
///
//===----------------------------------------------------------------------===//

#ifndef SERVICE_SERVICE_H
#define SERVICE_SERVICE_H

#include "service/Cache.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sest::service {

namespace detail {
struct Request; // One decoded request line (Service.cpp).
}

/// Service configuration.
struct ServiceOptions {
  /// Worker threads per batch (obs::parallelFor: 0 = one per core,
  /// 1 = serial). Responses are byte-identical for every value.
  unsigned Jobs = 1;
  /// Total cache byte budget, split evenly across the six tiers
  /// (0 disables memoization entirely — every request recomputes).
  size_t CacheBudgetBytes = 256u << 20;
  /// Mutex stripes per tier.
  unsigned CacheShards = 16;
};

/// The six cache tiers of one service instance, and the tables their
/// keys' sources and fields are interned in.
struct CacheSet {
  /// Declared first, so they outlive every key in the tiers.
  InternTable Sources, Fields;
  ShardedCache Ast, Cfg, Branch, Solve, Native, Response;

  CacheSet(size_t BudgetBytes, unsigned Shards);
  /// Tier pointers in stable report order.
  std::vector<const ShardedCache *> all() const;
};

/// A long-lived analysis service instance. One Service is driven from
/// one thread (sestd's read loop, a test, a bench); the parallelism is
/// inside handleBatch. See the file comment for the contract.
class Service {
public:
  explicit Service(const ServiceOptions &Options = {});
  ~Service();
  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  /// Handles one request line; returns the response line (no trailing
  /// newline). Never throws: malformed input becomes an ok:false
  /// response.
  std::string handle(const std::string &Line);

  /// Handles a batch: requests are decoded and run through
  /// obs::parallelFor on up to Jobs workers, and responses come back in
  /// request order.
  std::vector<std::string> handleBatch(const std::vector<std::string> &Lines);

  /// Answers a request line the caller could not take in (sestd's line
  /// cap) with an ok:false response carrying \p Error. It is counted,
  /// timed and logged like any other bad request.
  std::string reject(const std::string &Error);

  /// True once a shutdown request has been acknowledged; the driver
  /// loop should stop reading after draining the current batch.
  bool shutdownRequested() const {
    return Shutdown.load(std::memory_order_relaxed);
  }

  /// The Prometheus text exposition (also served as the `metrics` op):
  /// the calling thread's ambient telemetry registry rendered via
  /// obs::renderPrometheus, plus the cache tiers' live atomic totals as
  /// `service.cache.<tier>.{hits,misses,evictions,bytes,entries}`
  /// gauges. With \p DeterministicOnly, only the request-flow counter
  /// families that are byte-identical across Jobs values and cache
  /// states are emitted (see obs::deterministicSeriesName).
  std::string metricsExposition(bool DeterministicOnly) const;

  const CacheSet &caches() const { return *Caches; }
  const ServiceOptions &options() const { return Opts; }

private:
  std::string dispatch(const detail::Request &R, bool &Ok);
  /// Gives \p R its ordinal and logs its enqueue event.
  void enqueue(detail::Request &R, uint64_t Ordinal, size_t QueueDepth);
  /// Executes one already-parsed request: span events, latency
  /// histograms, dispatch.
  std::string handleParsed(const detail::Request &R);

  ServiceOptions Opts;
  std::unique_ptr<CacheSet> Caches;
  /// Next request ordinal; assigned at intake, in request order, so
  /// `req:<N>` span provenance is stable across Jobs values.
  std::atomic<uint64_t> NextOrdinal{0};
  /// Atomic: a shutdown request may land on any batch worker.
  std::atomic<bool> Shutdown{false};
};

} // namespace sest::service

#endif // SERVICE_SERVICE_H
