#pragma once

/// \file expansion_cache.h
/// \brief Sharded LRU cache for computed expansions.
///
/// Expansion (entity linking + neighborhood extraction + cycle
/// enumeration) dominates query latency and is a pure function of
/// `(keywords, resolved strategy, overrides)` over an immutable knowledge
/// base — ideal cache material.  Keys carry that full triple: the 64-bit
/// hash (common/hash.h over `ExpanderOverrides::Hash`) only picks the
/// shard and bucket, while entry identity is full-key equality, so
/// distinct requests can never alias into one entry.
///
/// Sharding: entries are spread over N independently locked LRU shards by
/// the high bits of the key hash, so concurrent lookups from the worker
/// pool contend only when they land on the same shard.  Per-shard
/// capacity bounds total memory; an optional TTL ages entries out for
/// deployments whose knowledge base is periodically rebuilt.
///
/// Generations: "over an immutable knowledge base" became "over the
/// snapshot that computed it" once the engine learned hot republish
/// (`api::Engine::PublishSnapshot`).  Every entry is stamped with the
/// graph-snapshot generation it was computed under; a `Get` whose caller
/// passes a newer generation treats the entry as stale — dropped on
/// sight, counted as a miss plus a `stale_drops` — so a republish
/// implicitly invalidates the whole cache without any global sweep.
/// Generations only move forward: a caller still pinned to an older
/// epoch during a publish misses without touching a newer entry, and a
/// `Put` never replaces an entry stamped with a newer generation.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/engine.h"
#include "common/mutex.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace wqe::serve {

/// \brief Cache tuning.
struct ExpansionCacheOptions {
  /// Total entry budget across all shards (>= 1 enforced per shard).
  size_t capacity = 4096;
  /// Lock granularity; rounded up to a power of two, at least 1.
  size_t num_shards = 16;
  /// Entries older than this are treated as misses and dropped;
  /// zero disables expiry.
  std::chrono::milliseconds ttl{0};
  /// Where the cache registers its `wqe.cache.*{cache=N}` counters;
  /// null uses the global registry.  The `serve::Server` propagates its
  /// own registry choice here so one knob isolates a whole stack.
  obs::MetricsRegistry* registry = nullptr;
};

/// \brief Counter snapshot (monotonic except `entries`).
struct ExpansionCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;    ///< capacity-driven LRU drops
  size_t expirations = 0;  ///< TTL-driven drops
  size_t stale_drops = 0;  ///< older-generation drops (post-republish)
  size_t entries = 0;      ///< currently resident

  double HitRatio() const {
    size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// \brief Thread-safe sharded LRU of `api::ExpandResponse` values.
class ExpansionCache {
 public:
  /// \brief Full cache key; see the file comment for the hash/equality
  /// contract.
  struct Key {
    std::string keywords;
    std::string expander;  ///< resolved canonical strategy name
    api::ExpanderOverrides overrides;

    /// Memoized: the shard pick and the bucket probe of one Get/Put call
    /// share a single computation.  Safe under sharded concurrency: keys
    /// stored in a shard are only re-hashed under that shard's mutex.
    uint64_t Hash() const;
    bool operator==(const Key& other) const {
      return keywords == other.keywords && expander == other.expander &&
             overrides == other.overrides;
    }

    /// \privatesection (memo fields, not part of the key's value)
    mutable uint64_t memo_hash = 0;
    mutable bool memo_valid = false;
  };

  explicit ExpansionCache(ExpansionCacheOptions options = {});

  /// \brief Returns the cached expansion (refreshing its LRU position) or
  /// nullptr on miss.  The returned pointer stays valid after eviction.
  /// `generation` is the caller's pinned graph-snapshot generation: an
  /// entry stamped with an older one is dropped as stale, and one stamped
  /// with a newer one is a miss that stays cached (default 0 matches the
  /// default `Put`, for generation-agnostic callers/tests).
  std::shared_ptr<const api::ExpandResponse> Get(const Key& key,
                                                 uint64_t generation = 0);

  /// \brief Inserts (or refreshes) `response` under `key`, stamped with
  /// `generation`, evicting the least-recently-used entry of the target
  /// shard when it is full.  An entry stamped with a newer generation is
  /// kept as it is.
  void Put(const Key& key, api::ExpandResponse response,
           uint64_t generation = 0);

  /// \brief Drops every entry; counters are kept.
  void Clear();

  /// \brief Structural validator (the dynamic complement of the lock
  /// annotations): checks, per shard under its mutex, that the LRU list
  /// and the index are a bijection — equal sizes, every index entry
  /// resolving to a live list node with the same key, every list node
  /// indexed under its own key — that occupancy respects the per-shard
  /// capacity, and that no entry is null.  O(entries); intended for
  /// tests and debug builds, safe (just slow) to call concurrently with
  /// serving traffic.
  Status CheckShardInvariants() const;

  ExpansionCacheStats stats() const;
  size_t size() const;
  size_t num_shards() const { return shards_.size(); }
  const ExpansionCacheOptions& options() const { return options_; }

 private:
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return static_cast<size_t>(key.Hash());
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const api::ExpandResponse> value;
    std::chrono::steady_clock::time_point inserted;
    uint64_t generation = 0;  ///< graph-snapshot epoch that computed it
  };
  /// One lock + LRU list (front = most recent) + index per shard.
  struct Shard {
    mutable common::Mutex mu;
    std::list<Entry> lru WQE_GUARDED_BY(mu);
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index
        WQE_GUARDED_BY(mu);
  };

  Shard& ShardFor(uint64_t hash) const {
    // High bits, so the shard pick stays decorrelated from the
    // shard-local hash table's bucketing; modulo (not a mask) keeps every
    // shard reachable at any configured count.
    return *shards_[(hash >> 32) % shards_.size()];
  }
  bool Expired(const Entry& entry,
               std::chrono::steady_clock::time_point now) const {
    return options_.ttl.count() > 0 && now - entry.inserted >= options_.ttl;
  }

  ExpansionCacheOptions options_;
  size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Registry-backed outcome counters (`wqe.cache.*{cache=N}`), resolved
  /// in the constructor; recording stays one relaxed fetch_add, exactly
  /// what the member atomics they replaced cost.
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* expirations_ = nullptr;
  obs::Counter* stale_drops_ = nullptr;
};

}  // namespace wqe::serve
