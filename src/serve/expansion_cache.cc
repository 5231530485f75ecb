#include "serve/expansion_cache.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"

namespace wqe::serve {

namespace {

size_t RoundUpToPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

uint64_t ExpansionCache::Key::Hash() const {
  if (!memo_valid) {
    Hasher hasher;
    hasher.Add(std::string_view(keywords));
    hasher.Add(std::string_view(expander));
    hasher.Add(overrides.Hash());
    memo_hash = hasher.hash();
    memo_valid = true;
  }
  return memo_hash;
}

ExpansionCache::ExpansionCache(ExpansionCacheOptions options)
    : options_(std::move(options)) {
  size_t shards = RoundUpToPowerOfTwo(std::max<size_t>(1, options_.num_shards));
  // More shards than entries would make every shard hold one entry and
  // defeat the LRU; cap shards at the capacity.
  shards = std::min(shards,
                    RoundUpToPowerOfTwo(std::max<size_t>(1, options_.capacity)));
  per_shard_capacity_ =
      std::max<size_t>(1, (std::max<size_t>(1, options_.capacity) +
                           shards - 1) / shards);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  obs::MetricsRegistry& registry = options_.registry != nullptr
                                       ? *options_.registry
                                       : obs::MetricsRegistry::Global();
  const obs::Labels labels = {{"cache", std::to_string(obs::NextInstanceId())}};
  hits_ = registry.GetCounter("wqe.cache.hits", labels);
  misses_ = registry.GetCounter("wqe.cache.misses", labels);
  evictions_ = registry.GetCounter("wqe.cache.evictions", labels);
  expirations_ = registry.GetCounter("wqe.cache.expirations", labels);
  stale_drops_ = registry.GetCounter("wqe.cache.stale_drops", labels);
}

std::shared_ptr<const api::ExpandResponse> ExpansionCache::Get(
    const Key& key, uint64_t generation) {
  Shard& shard = ShardFor(key.Hash());
  auto now = std::chrono::steady_clock::now();
  common::MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_->Inc();
    return nullptr;
  }
  if (it->second->generation < generation) {
    // Computed under an older graph epoch — a republish happened.  Drop
    // rather than serve a result the current graph may contradict.
    shard.lru.erase(it->second);
    shard.index.erase(it);
    stale_drops_->Inc();
    misses_->Inc();
    return nullptr;
  }
  if (it->second->generation > generation) {
    // The caller is still pinned to an older epoch mid-publish: miss, but
    // keep the newer epoch's entry for the requests that will want it.
    misses_->Inc();
    return nullptr;
  }
  if (Expired(*it->second, now)) {
    shard.lru.erase(it->second);
    shard.index.erase(it);
    expirations_->Inc();
    misses_->Inc();
    return nullptr;
  }
  // Refresh: move to the front of the shard's recency list.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_->Inc();
  return it->second->value;
}

void ExpansionCache::Put(const Key& key, api::ExpandResponse response,
                         uint64_t generation) {
  auto value = std::make_shared<const api::ExpandResponse>(std::move(response));
  Shard& shard = ShardFor(key.Hash());
  auto now = std::chrono::steady_clock::now();
  common::MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // An old-epoch result never replaces a newer epoch's entry.
    if (it->second->generation > generation) return;
    it->second->value = std::move(value);
    it->second->inserted = now;
    it->second->generation = generation;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(value), now, generation});
  shard.index.emplace(key, shard.lru.begin());
  if (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_->Inc();
  }
}

void ExpansionCache::Clear() {
  for (auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

Status ExpansionCache::CheckShardInvariants() const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    common::MutexLock lock(shard.mu);
    if (shard.lru.size() != shard.index.size()) {
      return Status::Internal("shard ", s, ": lru holds ", shard.lru.size(),
                              " entries but index holds ",
                              shard.index.size());
    }
    if (shard.lru.size() > per_shard_capacity_) {
      return Status::Internal("shard ", s, ": ", shard.lru.size(),
                              " entries exceed per-shard capacity ",
                              per_shard_capacity_);
    }
    // Bijection: every list node is indexed under its own key and the
    // index maps that key straight back to the node.  With equal sizes
    // this also proves every index entry resolves to a live node.
    for (auto it = shard.lru.begin(); it != shard.lru.end(); ++it) {
      auto found = shard.index.find(it->key);
      if (found == shard.index.end()) {
        return Status::Internal("shard ", s,
                                ": lru entry missing from the index");
      }
      if (found->second != it) {
        return Status::Internal("shard ", s,
                                ": index maps a key to a different node");
      }
      if (it->value == nullptr) {
        return Status::Internal("shard ", s, ": null cached value");
      }
      if (&ShardFor(it->key.Hash()) != &shard) {
        return Status::Internal("shard ", s,
                                ": entry hashed to a different shard");
      }
    }
  }
  return Status::OK();
}

ExpansionCacheStats ExpansionCache::stats() const {
  ExpansionCacheStats stats;
  stats.hits = hits_->value();
  stats.misses = misses_->value();
  stats.evictions = evictions_->value();
  stats.expirations = expirations_->value();
  stats.stale_drops = stale_drops_->value();
  stats.entries = size();
  return stats;
}

size_t ExpansionCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace wqe::serve
