//===- service/Cache.cpp - Sharded content-addressed LRU cache -------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "service/Cache.h"

#include "obs/Telemetry.h"
#include "support/Hash.h"

using namespace sest;
using namespace sest::service;

InternTable::InternTable(unsigned Shards, bool Digests)
    : Shards_(Shards ? Shards : 1), Digests(Digests) {}

InternRef InternTable::intern(std::string Bytes) {
  const uint64_t H = wordHash64(Bytes);
  Shard &S = Shards_[H % Shards_.size()];
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto [It, End] = S.Map.equal_range(H);
  for (; It != End; ++It)
    if (It->second.first->Bytes == Bytes)
      if (InternRef Live = It->second.second.lock())
        return Live;
  // Not found, or found dying (its deleter waits on Mu): a new entry,
  // without the slack the decoder's appends left.
  Bytes.shrink_to_fit();
  const uint64_t Digest = Digests ? contentHash64(Bytes) : 0;
  const auto *E = new Interned{std::move(Bytes), H, Digest};
  InternRef Ref(E, [this, &S](const Interned *Dead) {
    {
      std::lock_guard<std::mutex> Lock(S.Mu);
      auto Slot = S.Map.equal_range(Dead->WordHash).first;
      while (Slot->second.first != Dead)
        ++Slot;
      S.Map.erase(Slot);
    }
    --Live;
    LiveBytes -= Dead->Bytes.size();
    delete Dead;
  });
  S.Map.emplace(H, std::make_pair(E, std::weak_ptr(Ref)));
  ++Created;
  ++Live;
  LiveBytes += E->Bytes.size();
  return Ref;
}

KeyProbe::KeyProbe(const InternRef &Src, std::string_view FieldBytes)
    : Source(Src.get()), Fields(FieldBytes),
      Digest(keyDigest(Source, wordHash64(FieldBytes))) {}

ShardedCache::ShardedCache(std::string TierName, size_t BudgetBytes,
                           unsigned Shards)
    : Tier(std::move(TierName)),
      CounterHit("service.cache." + Tier + ".hit"),
      CounterMiss("service.cache." + Tier + ".miss"),
      CounterEvict("service.cache." + Tier + ".evict"),
      GaugeBytes("service.cache." + Tier + ".bytes.high_water"),
      ShardBudget(BudgetBytes / (Shards ? Shards : 1)),
      Shards_(Shards ? Shards : 1) {}

std::shared_ptr<const void> ShardedCache::get(const KeyProbe &Key) {
  Shard &S = shardFor(Key);
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto It = S.Entries.find(Key);
    if (It != S.Entries.end()) {
      // Refresh recency: move to the front of the LRU list.
      S.Lru.splice(S.Lru.begin(), S.Lru, It->second.LruIt);
      Hits.fetch_add(1, std::memory_order_relaxed);
      obs::counterAdd(CounterHit);
      return It->second.Value;
    }
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  obs::counterAdd(CounterMiss);
  return nullptr;
}

void ShardedCache::put(CacheKey Key, std::shared_ptr<const void> Value,
                       size_t ValueBytes) {
  // Oversized values (or a zero budget = caching disabled) are not
  // admitted — admitting one would immediately evict everything else
  // and still leave the shard over budget.
  if (!admits(ValueBytes))
    return;

  // Evicted entries are destroyed outside the shard lock: destructors of
  // large artifacts (whole ASTs) are not free, a concurrent reader may
  // hold the last other reference, and a key may hold the last reference
  // to its interned source.
  std::vector<Map::node_type> Victims;
  Shard &S = shardFor(Key);
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto [It, Inserted] = S.Entries.try_emplace(std::move(Key));
    if (!Inserted) {
      // Deterministic artifacts: the resident value equals the new one.
      S.Lru.splice(S.Lru.begin(), S.Lru, It->second.LruIt);
      return;
    }
    S.Lru.push_front(&It->first);
    It->second.Value = std::move(Value);
    It->second.Bytes = ValueBytes;
    It->second.LruIt = S.Lru.begin();
    S.Bytes += ValueBytes;
    Entries.fetch_add(1, std::memory_order_relaxed);
    Bytes.fetch_add(ValueBytes, std::memory_order_relaxed);

    while (S.Bytes > ShardBudget && S.Lru.size() > 1) {
      auto VIt = S.Entries.find(*S.Lru.back());
      S.Bytes -= VIt->second.Bytes;
      Bytes.fetch_sub(VIt->second.Bytes, std::memory_order_relaxed);
      Entries.fetch_sub(1, std::memory_order_relaxed);
      S.Lru.pop_back();
      Victims.push_back(S.Entries.extract(VIt));
    }
  }
  if (!Victims.empty()) {
    Evictions.fetch_add(Victims.size(), std::memory_order_relaxed);
    obs::counterAdd(CounterEvict, static_cast<double>(Victims.size()));
  }
  obs::gaugeMax(GaugeBytes,
                static_cast<double>(Bytes.load(std::memory_order_relaxed)));
}

void ShardedCache::clear() {
  for (Shard &S : Shards_) {
    Map Dropped; // destroyed outside the lock, like eviction victims
    std::lock_guard<std::mutex> Lock(S.Mu);
    Bytes.fetch_sub(S.Bytes, std::memory_order_relaxed);
    Entries.fetch_sub(S.Entries.size(), std::memory_order_relaxed);
    Dropped.swap(S.Entries);
    S.Lru.clear();
    S.Bytes = 0;
  }
}

CacheTierStats ShardedCache::stats() const {
  CacheTierStats Out;
  Out.Hits = Hits.load(std::memory_order_relaxed);
  Out.Misses = Misses.load(std::memory_order_relaxed);
  Out.Evictions = Evictions.load(std::memory_order_relaxed);
  Out.Bytes = Bytes.load(std::memory_order_relaxed);
  Out.Entries = Entries.load(std::memory_order_relaxed);
  return Out;
}
