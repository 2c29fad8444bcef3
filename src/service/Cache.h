//===- service/Cache.h - Sharded content-addressed LRU cache ----*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memoization substrate of the analysis service: an intern table
/// for request sources and key fields, and a mutex-striped,
/// byte-budgeted LRU map from cache keys to immutable, shared analysis
/// artifacts. One ShardedCache instance backs
/// one *tier* (ASTs, CFGs+call graphs, branch tables, Markov solves, opt
/// plans, rendered responses); the CacheSet in Service.h groups the
/// service's tiers.
///
/// Design constraints, in order:
///
///  1. *Identity is content, confirmed.* Every request's source is
///     interned once (InternTable): found by a word hash, confirmed by
///     comparing bytes, so each live entry stands for exactly one byte
///     string. A stored CacheKey pairs that entry with the interned
///     framed bytes of the other fields that select an artifact; a
///     lookup (KeyProbe) hits it only with the same source entry and the
///     same field bytes. Digests only place keys in shards and buckets,
///     so two sources with equal hashes can never share an artifact.
///
///  2. *Correctness under eviction and concurrency.* Values are handed
///     out as shared_ptr<const T>: an entry evicted while a worker still
///     holds it stays alive until the worker drops it, and entries are
///     immutable after insertion, so cached artifacts can be shared by
///     any number of concurrent requests. A lost race (two workers
///     computing the same key) is benign: artifacts are deterministic
///     functions of their key's content, so whichever insert lands first
///     wins and both values are interchangeable. Eviction can therefore
///     only ever cost time, never change a response byte.
///
///  3. *Sharded, not global.* Keys are striped over N independently
///     locked shards by their content digest; the byte budget is split
///     evenly across shards and each shard runs its own LRU list, so
///     eviction never takes a global lock either.
///
///  4. *Observable.* Every get/put/evict bumps both the ambient
///     Telemetry (service.cache.<tier>.{hit,miss,evict} counters and the
///     service.cache.<tier>.bytes gauge) and lock-free internal atomics,
///     so live totals are available for the `stats` request even when no
///     telemetry context is installed.
///
//===----------------------------------------------------------------------===//

#ifndef SERVICE_CACHE_H
#define SERVICE_CACHE_H

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sest::service {

/// One distinct byte string (a request source, or a key's framed
/// fields), stored once however many requests and keys name it, with
/// its hashes, taken once.
struct Interned {
  std::string Bytes;
  uint64_t WordHash = 0; ///< wordHash64(Bytes): placement only.
  /// contentHash64(Bytes), a program_hash; 0 in a table without digests.
  uint64_t ContentHash = 0;
};
using InternRef = std::shared_ptr<const Interned>;

/// An intern table: at most one live entry per distinct byte string. It
/// holds entries weakly: an entry lives while a cache key or an in-flight
/// request holds it, and leaves the table when the last one lets go.
/// Every cache key charges its tier for the bytes it holds, so the cache
/// budget bounds what the keys keep here. Thread-safe; the table must
/// outlive every entry it hands out.
class InternTable {
public:
  /// \p Digests: whether new entries take their FNV-1a digest.
  explicit InternTable(unsigned Shards = 16, bool Digests = false);
  InternTable(const InternTable &) = delete;
  InternTable &operator=(const InternTable &) = delete;

  /// The live entry holding \p Bytes, found by word hash and confirmed
  /// by comparing the bytes; or a new one. With Digests, the new entry's
  /// FNV-1a digest (the one pass over the bytes besides the word hash)
  /// is computed here.
  InternRef intern(std::string Bytes);

  /// Live entries, and the bytes they hold.
  size_t size() const { return Live; }
  size_t bytes() const { return LiveBytes; }
  /// Entries ever created: with Digests, FNV-1a passes run.
  uint64_t created() const { return Created; }

private:
  struct Shard {
    mutable std::mutex Mu;
    /// By word hash. The raw pointer stays valid while its slot is here:
    /// an entry's deleter takes the slot out, under Mu, before it frees.
    std::unordered_multimap<
        uint64_t, std::pair<const Interned *, std::weak_ptr<const Interned>>>
        Map;
  };
  std::vector<Shard> Shards_;
  bool Digests;
  std::atomic<uint64_t> Created{0}, Live{0}, LiveBytes{0};
};

/// Places a key in a shard and a bucket from its source entry and the
/// word hash of its framed fields; never decides a hit.
inline uint64_t keyDigest(const Interned *Source, uint64_t FieldsHash) {
  return FieldsHash ^ (Source ? Source->WordHash * 0x9e3779b97f4a7c15ULL : 0);
}

/// A stored cache key: an interned source and the interned framed fields
/// that select the artifact (support/Hash.h's HashBuilder), both
/// compared by identity. A table keeps one live entry per byte string
/// and the key holds both alive, so identity is byte equality.
struct CacheKey {
  InternRef Source; ///< Null for a key that names no source.
  InternRef Fields;

  bool operator==(const CacheKey &O) const {
    return Source == O.Source && Fields == O.Fields;
  }
};

/// A lookup: a source entry and framed fields the caller owns, so a hit
/// interns nothing. It matches the stored key with the same source
/// entry and the same field bytes.
struct KeyProbe {
  KeyProbe(const InternRef &Src, std::string_view FieldBytes);
  KeyProbe(const CacheKey &K)
      : Source(K.Source.get()), Fields(K.Fields->Bytes),
        Digest(keyDigest(Source, K.Fields->WordHash)) {}

  const Interned *Source;
  std::string_view Fields;
  uint64_t Digest;
};

/// Point-in-time totals of one cache tier (summed over shards).
struct CacheTierStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Bytes = 0;   ///< Resident value bytes (approximate, as charged).
  uint64_t Entries = 0; ///< Resident entry count.
};

/// One tier of the memoization cache. Thread-safe; see file comment.
class ShardedCache {
public:
  /// \p Tier names the tier in counters ("ast", "solve", ...).
  /// \p BudgetBytes caps resident value bytes (0 disables caching:
  /// every get misses and put is a no-op). \p Shards is clamped to >= 1.
  ShardedCache(std::string Tier, size_t BudgetBytes, unsigned Shards = 8);

  ShardedCache(const ShardedCache &) = delete;
  ShardedCache &operator=(const ShardedCache &) = delete;

  /// The value under \p Key, or null on miss. Refreshes LRU recency.
  std::shared_ptr<const void> get(const KeyProbe &Key);

  /// Whether put() admits a value charged \p Bytes: caching is on and
  /// the value fits one shard's budget.
  bool admits(size_t Bytes) const {
    return ShardBudget != 0 && Bytes <= ShardBudget;
  }

  /// Typed convenience wrapper over get().
  template <typename T> std::shared_ptr<const T> getAs(const KeyProbe &Key) {
    return std::static_pointer_cast<const T>(get(Key));
  }

  /// Inserts \p Value under \p Key, charging \p Bytes against the
  /// budget, then evicts least-recently-used entries until the shard is
  /// within budget again. A key that is already present keeps the
  /// existing value (artifacts are deterministic, so they are equal).
  /// A value larger than a whole shard's budget is not admitted.
  void put(CacheKey Key, std::shared_ptr<const void> Value, size_t Bytes);

  /// Drops every entry (stats counters are kept).
  void clear();

  const std::string &tier() const { return Tier; }
  CacheTierStats stats() const;

private:
  struct Entry {
    std::shared_ptr<const void> Value;
    size_t Bytes = 0;
    std::list<const CacheKey *>::iterator LruIt; ///< Position in Lru.
  };
  struct ByDigest {
    using is_transparent = void;
    size_t operator()(const CacheKey &K) const noexcept {
      return keyDigest(K.Source.get(), K.Fields->WordHash);
    }
    size_t operator()(const KeyProbe &K) const noexcept { return K.Digest; }
  };
  struct SameKey {
    using is_transparent = void;
    bool operator()(const CacheKey &A, const CacheKey &B) const {
      return A == B;
    }
    bool operator()(const KeyProbe &P, const CacheKey &K) const {
      return P.Source == K.Source.get() && P.Fields == K.Fields->Bytes;
    }
  };
  using Map = std::unordered_map<CacheKey, Entry, ByDigest, SameKey>;

  struct Shard {
    std::mutex Mu;
    Map Entries;
    /// Keys of Entries (stable node addresses). Front = most recent,
    /// back = next victim.
    std::list<const CacheKey *> Lru;
    size_t Bytes = 0;
  };

  Shard &shardFor(const KeyProbe &Key) {
    return Shards_[Key.Digest % Shards_.size()];
  }

  std::string Tier;
  std::string CounterHit, CounterMiss, CounterEvict, GaugeBytes;
  size_t ShardBudget; ///< Per-shard byte budget.
  std::vector<Shard> Shards_;

  std::atomic<uint64_t> Hits{0}, Misses{0}, Evictions{0}, Bytes{0},
      Entries{0};
};

} // namespace sest::service

#endif // SERVICE_CACHE_H
