#pragma once

/// \file expansion_cache.h
/// \brief LRU cache for computed expansions.
///
/// Expansion (entity linking + neighborhood extraction + cycle
/// enumeration) dominates query latency and is a pure function of
/// `(keywords, resolved strategy, overrides)` over an immutable knowledge
/// base — ideal cache material.  Keys carry that full triple: the 64-bit
/// hash (common/hash.h over `ExpanderOverrides::Hash`) only picks the
/// bucket, while entry identity is full-key equality, so distinct
/// requests can never alias into one entry.
///
/// One mutex guards one LRU list and one index, so `capacity` is exact
/// and eviction always drops the least recently used entry of the whole
/// cache.
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
/// `Put` never replaces an entry stamped with a newer generation.  An
/// entry never expires otherwise: only a publish can make it stale.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "api/engine.h"
#include "common/mutex.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace wqe::serve {

/// \brief Cache tuning.
struct ExpansionCacheOptions {
  /// Entry budget; 0 is treated as 1.
  size_t capacity = 4096;
};

/// \brief Counter snapshot (monotonic except `entries`).
struct ExpansionCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;    ///< capacity-driven LRU drops
  size_t stale_drops = 0;  ///< older-generation drops (post-republish)
  size_t entries = 0;      ///< currently resident
};

/// \brief Thread-safe LRU of `api::ExpandResponse` values.
class ExpansionCache {
 public:
  /// \brief Full cache key; see the file comment for the hash/equality
  /// contract.
  struct Key {
    std::string keywords;
    std::string expander;  ///< resolved canonical strategy name
    api::ExpanderOverrides overrides;

    /// Memoized: `Get`/`Put` compute it before they lock, so the bucket
    /// probes under the mutex hash nothing.  Keys stored in the cache are
    /// only re-hashed under its mutex.
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
  /// `generation`, evicting the least-recently-used entry when the cache
  /// is full.  An entry stamped with a newer generation is kept as it is.
  void Put(const Key& key, api::ExpandResponse response,
           uint64_t generation = 0);

  /// \brief Drops every entry; counters are kept.
  void Clear();

  /// \brief Structural validator (the dynamic complement of the lock
  /// annotations): checks, under the mutex, that the LRU list and the
  /// index are a bijection — equal sizes, every index entry resolving to
  /// a live list node with the same key, every list node indexed under
  /// its own key — that occupancy respects the capacity, and that no
  /// entry is null.  O(entries); intended for tests and debug builds,
  /// safe (just slow) to call concurrently with serving traffic.
  Status CheckInvariants() const;

  ExpansionCacheStats stats() const;
  size_t size() const;

 private:
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return static_cast<size_t>(key.Hash());
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const api::ExpandResponse> value;
    uint64_t generation = 0;  ///< graph-snapshot epoch that computed it
  };

  size_t capacity_ = 0;  ///< `ExpansionCacheOptions::capacity`, at least 1
  mutable common::Mutex mu_;
  std::list<Entry> lru_ WQE_GUARDED_BY(mu_);  ///< front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_
      WQE_GUARDED_BY(mu_);
  /// Outcome counters in the global registry (`wqe.cache.*{cache=N}`),
  /// resolved in the constructor; recording is one relaxed fetch_add.
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* stale_drops_ = nullptr;
};

}  // namespace wqe::serve
