#include "serve/expansion_cache.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"

namespace wqe::serve {

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
    : capacity_(std::max<size_t>(1, options.capacity)) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Labels labels = {{"cache", std::to_string(obs::NextInstanceId())}};
  hits_ = registry.GetCounter("wqe.cache.hits", labels);
  misses_ = registry.GetCounter("wqe.cache.misses", labels);
  evictions_ = registry.GetCounter("wqe.cache.evictions", labels);
  stale_drops_ = registry.GetCounter("wqe.cache.stale_drops", labels);
}

std::shared_ptr<const api::ExpandResponse> ExpansionCache::Get(
    const Key& key, uint64_t generation) {
  key.Hash();  // memoized outside the lock
  common::MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_->Inc();
    return nullptr;
  }
  if (it->second->generation < generation) {
    // Computed under an older graph epoch — a republish happened.  Drop
    // rather than serve a result the current graph may contradict.
    lru_.erase(it->second);
    index_.erase(it);
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
  // Refresh: move to the front of the recency list.
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_->Inc();
  return it->second->value;
}

void ExpansionCache::Put(const Key& key, api::ExpandResponse response,
                         uint64_t generation) {
  auto value = std::make_shared<const api::ExpandResponse>(std::move(response));
  key.Hash();  // memoized outside the lock
  common::MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // An old-epoch result never replaces a newer epoch's entry.
    if (it->second->generation > generation) return;
    it->second->value = std::move(value);
    it->second->generation = generation;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(value), generation});
  index_.emplace(key, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_->Inc();
  }
}

void ExpansionCache::Clear() {
  common::MutexLock lock(mu_);
  lru_.clear();
  index_.clear();
}

Status ExpansionCache::CheckInvariants() const {
  common::MutexLock lock(mu_);
  if (lru_.size() != index_.size()) {
    return Status::Internal("lru holds ", lru_.size(),
                            " entries but index holds ", index_.size());
  }
  if (lru_.size() > capacity_) {
    return Status::Internal(lru_.size(), " entries exceed capacity ",
                            capacity_);
  }
  // Bijection: every list node is indexed under its own key and the
  // index maps that key straight back to the node.  With equal sizes
  // this also proves every index entry resolves to a live node.
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    auto found = index_.find(it->key);
    if (found == index_.end()) {
      return Status::Internal("lru entry missing from the index");
    }
    if (found->second != it) {
      return Status::Internal("index maps a key to a different node");
    }
    if (it->value == nullptr) return Status::Internal("null cached value");
  }
  return Status::OK();
}

ExpansionCacheStats ExpansionCache::stats() const {
  ExpansionCacheStats stats;
  stats.hits = hits_->value();
  stats.misses = misses_->value();
  stats.evictions = evictions_->value();
  stats.stale_drops = stale_drops_->value();
  stats.entries = size();
  return stats;
}

size_t ExpansionCache::size() const {
  common::MutexLock lock(mu_);
  return lru_.size();
}

}  // namespace wqe::serve
