/// \file serve_test.cc
/// \brief Tests for the `serve::` concurrency subsystem: the thread pool,
/// the expansion cache (keying, capacity, LRU order, counters), and the
/// Server's parallel serving — including the determinism contract
/// (parallel rankings bit-identical to sequential) and a mixed
/// multi-threaded stress case meant to run under ThreadSanitizer
/// (`ci.sh` / the CI `tsan` job build this suite with
/// `-fsanitize=thread`).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/testbed.h"
#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/expansion_cache.h"
#include "serve/server.h"
#include "serve/thread_pool.h"
#include "wiki/synthetic.h"

namespace wqe::serve {
namespace {

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, ExecutesTasksAndReturnsFutures) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, ManyConcurrentIncrements) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasksAndIsIdempotent) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      // The single worker serializes these; most are still queued when
      // Shutdown begins and must run before it returns.
      pool.Submit([&executed] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++executed;
      });
    }
    pool.Shutdown();
    EXPECT_EQ(executed.load(), 20);
    pool.Shutdown();  // idempotent
  }  // destructor after explicit Shutdown is a no-op
  EXPECT_EQ(executed.load(), 20);
}

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

#ifndef NDEBUG
// The annotated join contract (`Shutdown` is WQE_EXCLUDES and must be
// driven from outside the pool): a worker shutting down its own pool
// would join itself and hang forever, so Debug builds abort instead.
// Live only where WQE_DCHECK is compiled in — the CI tsan/asan lanes.
TEST(ThreadPoolDeathTest, ShutdownFromWorkerAssertsInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.Submit([&pool] { pool.Shutdown(); }).get();
      },
      "OnWorkerThread");
}
#endif  // NDEBUG

// ------------------------------------------------------- ExpansionCache

ExpansionCache::Key MakeKey(const std::string& keywords,
                            const std::string& expander = "cycle",
                            api::ExpanderOverrides overrides = {}) {
  return ExpansionCache::Key{keywords, expander, std::move(overrides)};
}

api::ExpandResponse MakeResponse(const std::string& marker) {
  api::ExpandResponse response;
  response.expander = marker;
  return response;
}

TEST(ExpansionCacheTest, MissThenHit) {
  ExpansionCache cache;
  EXPECT_EQ(cache.Get(MakeKey("venice")), nullptr);
  cache.Put(MakeKey("venice"), MakeResponse("m"));
  auto hit = cache.Get(MakeKey("venice"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->expander, "m");
  ExpansionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ExpansionCacheTest, KeyIsTheFullTriple) {
  ExpansionCache cache;
  cache.Put(MakeKey("venice", "cycle"), MakeResponse("cycle-v"));
  EXPECT_EQ(cache.Get(MakeKey("venice", "direct-link")), nullptr);
  EXPECT_EQ(cache.Get(MakeKey("verona", "cycle")), nullptr);
  api::ExpanderOverrides capped;
  capped.max_features = 3;
  EXPECT_EQ(cache.Get(MakeKey("venice", "cycle", capped)), nullptr);
  ASSERT_NE(cache.Get(MakeKey("venice", "cycle")), nullptr);
}

// Satellite: distinct overrides must never collide into one cache entry.
// Entry identity is full-key equality (not the hash), so this holds even
// if two hashes collided; the test also checks the hashes themselves are
// distinct for a spread of single-field and combined configurations.
TEST(ExpansionCacheTest, DistinctOverridesNeverShareAnEntry) {
  std::vector<api::ExpanderOverrides> configs;
  configs.emplace_back();  // all unset
  {
    api::ExpanderOverrides o;
    o.max_features = 3;
    configs.push_back(o);
    o.max_features = 4;
    configs.push_back(o);
  }
  {
    // Same numeric value in a different field than max_features=3.
    api::ExpanderOverrides o;
    o.max_cycles = 3;
    configs.push_back(o);
    o = {};
    o.neighborhood_radius = 3;
    configs.push_back(o);
  }
  {
    api::ExpanderOverrides o;
    o.min_density = 1.0;
    configs.push_back(o);
    o.min_density = 1.5;
    configs.push_back(o);
    o = {};
    o.length_decay = 1.5;  // same double, different field
    configs.push_back(o);
  }
  {
    api::ExpanderOverrides o;
    o.prioritize_mutual = true;
    configs.push_back(o);
    o.prioritize_mutual = false;  // set-false differs from unset
    configs.push_back(o);
  }
  {
    api::ExpanderOverrides o;
    o.min_cycle_length = 2;
    o.max_cycle_length = 4;
    configs.push_back(o);
    std::swap(*o.min_cycle_length, *o.max_cycle_length);  // 4, 2
    configs.push_back(o);
  }

  std::set<uint64_t> hashes;
  for (size_t i = 0; i < configs.size(); ++i) {
    hashes.insert(configs[i].Hash());
    for (size_t j = i + 1; j < configs.size(); ++j) {
      EXPECT_FALSE(configs[i] == configs[j]) << i << " vs " << j;
    }
  }
  EXPECT_EQ(hashes.size(), configs.size()) << "override hashes collided";

  ExpansionCache cache;
  for (size_t i = 0; i < configs.size(); ++i) {
    cache.Put(MakeKey("venice", "cycle", configs[i]),
              MakeResponse(std::to_string(i)));
  }
  EXPECT_EQ(cache.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    auto hit = cache.Get(MakeKey("venice", "cycle", configs[i]));
    ASSERT_NE(hit, nullptr) << i;
    EXPECT_EQ(hit->expander, std::to_string(i));
  }
}

// A +0.0 and a -0.0 override compare equal, so they must hash equal and
// name one entry.
TEST(ExpansionCacheTest, SignedZeroOverridesShareAnEntry) {
  api::ExpanderOverrides positive;
  positive.min_density = 0.0;
  api::ExpanderOverrides negative;
  negative.min_density = -0.0;
  ASSERT_TRUE(positive == negative);
  EXPECT_EQ(positive.Hash(), negative.Hash());
  EXPECT_EQ(MakeKey("venice", "cycle", positive).Hash(),
            MakeKey("venice", "cycle", negative).Hash());

  ExpansionCache cache;
  cache.Put(MakeKey("venice", "cycle", positive), MakeResponse("zero"));
  auto hit = cache.Get(MakeKey("venice", "cycle", negative));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->expander, "zero");
  EXPECT_EQ(cache.size(), 1u);
}

// At default options, with only the capacity set: the cache holds exactly
// `capacity` entries, and each eviction drops the least recently used
// entry of the whole cache.  `k0` is read after every insertion, so it is
// never the least recent and must survive every eviction.
TEST(ExpansionCacheTest, CapacityIsExactAndEvictionIsGloballyLru) {
  for (size_t capacity : {size_t{3}, size_t{100}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    ExpansionCacheOptions options;
    options.capacity = capacity;
    ExpansionCache cache(options);
    const size_t total = capacity + capacity / 2 + 2;
    for (size_t i = 0; i < total; ++i) {
      cache.Put(MakeKey("k" + std::to_string(i)), MakeResponse("v"));
      ASSERT_NE(cache.Get(MakeKey("k0")), nullptr) << "after k" << i;
      ASSERT_LE(cache.size(), capacity) << "after k" << i;
    }
    EXPECT_EQ(cache.size(), capacity);
    EXPECT_EQ(cache.stats().evictions, total - capacity);
    // Survivors: k0 and the capacity - 1 newest keys.
    for (size_t i = 1; i < total; ++i) {
      const bool kept = i + capacity > total;
      EXPECT_EQ(cache.Get(MakeKey("k" + std::to_string(i))) != nullptr, kept)
          << "k" << i;
    }
    const Status status = cache.CheckInvariants();
    EXPECT_TRUE(status.ok()) << status;
  }
}

TEST(ExpansionCacheTest, LruEvictsLeastRecentlyUsed) {
  ExpansionCacheOptions options;
  options.capacity = 3;
  ExpansionCache cache(options);
  cache.Put(MakeKey("a"), MakeResponse("a"));
  cache.Put(MakeKey("b"), MakeResponse("b"));
  cache.Put(MakeKey("c"), MakeResponse("c"));
  ASSERT_NE(cache.Get(MakeKey("a")), nullptr);  // refresh a; b is now LRU
  cache.Put(MakeKey("d"), MakeResponse("d"));   // evicts b
  EXPECT_EQ(cache.Get(MakeKey("b")), nullptr);
  EXPECT_NE(cache.Get(MakeKey("a")), nullptr);
  EXPECT_NE(cache.Get(MakeKey("c")), nullptr);
  EXPECT_NE(cache.Get(MakeKey("d")), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ExpansionCacheTest, PutRefreshesExistingEntry) {
  ExpansionCacheOptions options;
  options.capacity = 2;
  ExpansionCache cache(options);
  cache.Put(MakeKey("a"), MakeResponse("a1"));
  cache.Put(MakeKey("b"), MakeResponse("b"));
  cache.Put(MakeKey("a"), MakeResponse("a2"));  // refresh, not insert
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  auto hit = cache.Get(MakeKey("a"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->expander, "a2");
  cache.Put(MakeKey("c"), MakeResponse("c"));  // now evicts b (LRU)
  EXPECT_EQ(cache.Get(MakeKey("b")), nullptr);
}

TEST(ExpansionCacheTest, EvictedValueStaysAliveForHolders) {
  ExpansionCacheOptions options;
  options.capacity = 1;
  ExpansionCache cache(options);
  cache.Put(MakeKey("a"), MakeResponse("a"));
  auto held = cache.Get(MakeKey("a"));
  ASSERT_NE(held, nullptr);
  cache.Put(MakeKey("b"), MakeResponse("b"));  // evicts a
  EXPECT_EQ(cache.Get(MakeKey("a")), nullptr);
  EXPECT_EQ(held->expander, "a");  // shared_ptr keeps the value valid
}

// Concurrent capacity-eviction churn, with the structural validator
// (LRU ↔ index bijection, occupancy ≤ capacity) interleaved live and
// re-checked after the drain.  Sized to force eviction (48 keys against a
// capacity of 16); the ci.sh asan lane runs this under ASan+UBSan, where
// a dangling LRU iterator or double-erase in the eviction path would be
// fatal.
TEST(ExpansionCacheTest, ConcurrentChurnKeepsInvariants) {
  ExpansionCacheOptions options;
  options.capacity = 16;
  ExpansionCache cache(options);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 600;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Overlapping key ranges across threads: hits, refreshes and
        // evictions all mix.
        std::string key = "k" + std::to_string((t * 17 + i) % 48);
        if (i % 3 == 0) {
          cache.Put(MakeKey(key), MakeResponse(key));
        } else {
          auto hit = cache.Get(MakeKey(key));
          if (hit != nullptr) {
            EXPECT_FALSE(hit->expander.empty());
          }
        }
        if (i % 100 == 0) {  // give the auditor windows mid-churn
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
    });
  }
  // A validator thread audits the cache while the churn is running —
  // CheckInvariants takes the cache mutex, so this also exercises the
  // lock discipline the annotations promise.
  std::thread auditor([&cache, &stop] {
    while (!stop.load()) {
      auto status = cache.CheckInvariants();
      EXPECT_TRUE(status.ok()) << status;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& worker : workers) worker.join();
  stop.store(true);
  auditor.join();

  auto status = cache.CheckInvariants();
  EXPECT_TRUE(status.ok()) << status;
  ExpansionCacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, options.capacity);
  EXPECT_GT(stats.evictions, 0u)
      << "churn never evicted anything — test is under-sized";
}

TEST(ExpansionCacheTest, ClearDropsEverything) {
  ExpansionCacheOptions options;
  options.capacity = 64;
  ExpansionCache cache(options);
  for (int i = 0; i < 40; ++i) {
    cache.Put(MakeKey("k" + std::to_string(i)), MakeResponse("v"));
  }
  EXPECT_GT(cache.size(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get(MakeKey("k1")), nullptr);
}

// --------------------------------------------------------------- Server

const api::Testbed& SmallBed() {
  static const api::Testbed* kBed = [] {
    api::TestbedOptions options;
    options.wiki.num_domains = 12;
    options.track.num_topics = 6;
    options.track.background_docs = 150;
    auto result = api::Testbed::Build(options);
    EXPECT_TRUE(result.ok()) << result.status();
    return result->release();
  }();
  return *kBed;
}

std::vector<api::QueryRequest> MixedRequests(size_t count) {
  const api::Testbed& bed = SmallBed();
  std::vector<api::QueryRequest> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    api::QueryRequest request;
    request.keywords = bed.topic(i % bed.num_topics()).keywords;
    request.expander = (i % 3 == 0) ? "direct-link" : "cycle";
    if (i % 4 == 0) request.overrides.max_features = 4;
    requests.push_back(std::move(request));
  }
  return requests;
}

TEST(ServerTest, SubmitMatchesEngineQuery) {
  const api::Testbed& bed = SmallBed();
  ServerOptions options;
  options.num_threads = 2;
  Server server(bed.engine(), options);

  api::QueryRequest request;
  request.keywords = bed.topic(0).keywords;
  auto sequential = bed.engine().Query(request);
  ASSERT_TRUE(sequential.ok()) << sequential.status();

  auto future = server.Submit(request);
  Result<api::QueryResponse> served = future.get();
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served->docs, sequential->docs);
  EXPECT_EQ(served->expansion.titles, sequential->expansion.titles);
  EXPECT_EQ(server.stats().requests, 1u);
}

TEST(ServerTest, SubmitHitsCacheOnRepeat) {
  const api::Testbed& bed = SmallBed();
  ServerOptions options;
  options.num_threads = 2;
  Server server(bed.engine(), options);

  api::QueryRequest request;
  request.keywords = bed.topic(1).keywords;
  size_t expanded_before = bed.engine().stats().expand_calls;

  auto first = server.Submit(request).get();
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = server.Submit(request).get();
  ASSERT_TRUE(second.ok()) << second.status();

  EXPECT_EQ(second->expansion.feature_articles,
            first->expansion.feature_articles);
  EXPECT_EQ(second->expansion.titles, first->expansion.titles);
  // The hit served without expanding.
  EXPECT_EQ(bed.engine().stats().expand_calls - expanded_before, 1u);
  ASSERT_NE(server.cache(), nullptr);
  EXPECT_EQ(server.cache()->stats().hits, 1u);
}

TEST(ServerTest, ParallelQueryBatchIsBitIdenticalToSequential) {
  const api::Testbed& bed = SmallBed();
  const std::vector<api::QueryRequest> requests = MixedRequests(24);

  auto sequential = bed.engine().QueryBatch(requests);
  ASSERT_TRUE(sequential.ok()) << sequential.status();

  for (size_t threads : {1u, 4u}) {
    ServerOptions options;
    options.num_threads = threads;
    Server server(bed.engine(), options);
    auto parallel = server.QueryBatch(requests);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(server.stats().batches, 1u);
    EXPECT_EQ(server.stats().requests, requests.size());
    ASSERT_EQ(parallel->size(), sequential->size());
    for (size_t i = 0; i < sequential->size(); ++i) {
      EXPECT_EQ((*parallel)[i].docs, (*sequential)[i].docs)
          << threads << " threads, request " << i;
      EXPECT_EQ((*parallel)[i].expansion.titles,
                (*sequential)[i].expansion.titles);
      EXPECT_EQ((*parallel)[i].expansion.feature_articles,
                (*sequential)[i].expansion.feature_articles);
      EXPECT_EQ((*parallel)[i].expansion.expander,
                (*sequential)[i].expansion.expander);
    }
  }
}

TEST(ServerTest, SecondPassServesFromCache) {
  const api::Testbed& bed = SmallBed();
  ServerOptions options;
  options.num_threads = 2;
  Server server(bed.engine(), options);

  const std::vector<api::QueryRequest> requests = MixedRequests(18);
  ASSERT_NE(server.cache(), nullptr);

  auto first = server.QueryBatch(requests);
  ASSERT_TRUE(first.ok()) << first.status();
  size_t first_hits = server.cache()->stats().hits;

  auto second = server.QueryBatch(requests);
  ASSERT_TRUE(second.ok()) << second.status();
  size_t total_hits = server.cache()->stats().hits;
  size_t total_misses = server.cache()->stats().misses;

  // 18 requests over 6 topics × few configs: the first pass already
  // repeats keys; the second pass must hit on every request.
  EXPECT_EQ(total_hits - first_hits, requests.size());
  EXPECT_EQ(total_hits + total_misses, 2 * requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ((*second)[i].docs, (*first)[i].docs) << "request " << i;
  }
}

TEST(ServerTest, DisabledCacheStillServes) {
  const api::Testbed& bed = SmallBed();
  ServerOptions options;
  options.num_threads = 2;
  options.enable_cache = false;
  Server server(bed.engine(), options);
  EXPECT_EQ(server.cache(), nullptr);

  size_t expanded_before = bed.engine().stats().expand_calls;
  api::QueryRequest request;
  request.keywords = bed.topic(0).keywords;
  auto a = server.Submit(request).get();
  auto b = server.Submit(request).get();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->docs, b->docs);
  // Nothing cached: the repeat expanded again.
  EXPECT_EQ(bed.engine().stats().expand_calls - expanded_before, 2u);
}

TEST(ServerTest, BatchFailureNamesLowestFailingRequest) {
  const api::Testbed& bed = SmallBed();
  Server server(bed.engine());
  std::vector<api::QueryRequest> requests(4);
  requests[0].keywords = bed.topic(0).keywords;
  requests[1].keywords = "";  // fails in the worker (empty keywords)
  requests[2].keywords = "";  // later failure must not win
  requests[3].keywords = bed.topic(1).keywords;
  auto batch = server.QueryBatch(requests);
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsInvalidArgument());
  EXPECT_NE(batch.status().message().find("QueryBatch request #1"),
            std::string::npos)
      << batch.status();

  // Bad configs fail with the same context shape.
  std::vector<api::QueryRequest> bad_config(2);
  bad_config[0].keywords = bed.topic(0).keywords;
  bad_config[1].keywords = bed.topic(1).keywords;
  bad_config[1].expander = "warp-drive";
  auto unknown = server.QueryBatch(bad_config);
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().IsNotFound());
  EXPECT_NE(unknown.status().message().find("QueryBatch request #1"),
            std::string::npos);

  // Mixed failure classes: a construction error at a higher index must
  // not preempt a runtime error at a lower one — the sequential facade
  // would fail on #0 before ever seeing #1's bad strategy, and the
  // parallel batch must name the same request.
  std::vector<api::QueryRequest> mixed(2);
  mixed[0].keywords = "";              // runtime failure in the worker
  mixed[1].keywords = bed.topic(0).keywords;
  mixed[1].expander = "warp-drive";    // construction failure in the worker
  auto parallel = server.QueryBatch(mixed);
  auto sequential = bed.engine().QueryBatch(mixed);
  ASSERT_FALSE(parallel.ok());
  ASSERT_FALSE(sequential.ok());
  EXPECT_EQ(parallel.status().code(), sequential.status().code());
  EXPECT_NE(parallel.status().message().find("QueryBatch request #0"),
            std::string::npos)
      << parallel.status();
}

TEST(ServerTest, FailedRequestsAreCountedByStage) {
  const api::Testbed& bed = SmallBed();
  Server server(bed.engine());

  api::QueryRequest good;
  good.keywords = bed.topic(0).keywords;
  ASSERT_TRUE(server.Submit(good).get().ok());

  api::QueryRequest bad;
  bad.keywords = bed.topic(1).keywords;
  bad.expander = "warp-drive";
  Result<api::QueryResponse> failed = server.Submit(std::move(bad)).get();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsNotFound());

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.requests_failed, 1u);
  // Failures are latencies too: both requests landed in the histogram.
  EXPECT_EQ(stats.request_latency_ms.count, 2u);
  // The per-stage error series names the stage that failed (the unknown
  // strategy dies in expander construction) and nothing else.
  EXPECT_EQ(stats.expander_construction_errors, 1u);
  EXPECT_EQ(stats.expansion_errors, 0u);
  EXPECT_EQ(stats.search_errors, 0u);
}

TEST(ServerTest, InjectedFailuresLandInExactlyOneStage) {
  // Every fault site a request passes fails it once, and the failure is
  // counted in exactly one of the five stages: a cache-lookup failure is
  // the expansion's, a construction failure the construction's.
  const api::Testbed& bed = SmallBed();
  struct Site {
    const char* name;
    size_t ServerStats::*stage;
  };
  const Site sites[] = {
      {"serve.cache_lookup", &ServerStats::expansion_errors},
      {"serve.expander_construction",
       &ServerStats::expander_construction_errors},
      {"expansion.enumeration", &ServerStats::expansion_errors},
  };
  for (const Site& site : sites) {
    SCOPED_TRACE(site.name);
    ServerOptions options;
    options.num_threads = 1;
    Server server(bed.engine(), options);
    common::FaultSpec fail;
    fail.fail_probability = 1.0;
    common::FaultInjector::Global().Configure(/*seed=*/9, {{site.name, fail}});
    api::QueryRequest request;
    request.keywords = bed.topic(0).keywords;
    Result<api::QueryResponse> response = server.Submit(request).get();
    common::FaultInjector::Global().Disable();

    ASSERT_FALSE(response.ok());
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests_failed, 1u);
    EXPECT_EQ(stats.requests_failed,
              stats.shed + stats.deadline_exceeded +
                  stats.expander_construction_errors +
                  stats.expansion_errors + stats.search_errors);
    EXPECT_EQ(stats.*site.stage, 1u);
  }
}

TEST(ServerTest, MixedBatchAttributesShedAndDeadlineOutcomes) {
  // One batch, three fates: #0 completes, #1 is shed at admission (its
  // budget is already spent when it arrives), #2 is admitted but blows
  // its deadline inside the worker (an injected cache-lookup stall eats
  // the whole budget).  The batch stays fail-atomic — the lowest failing
  // index (#1, the shed) names the error — and each outcome lands in its
  // own stage counter exactly once.
  const api::Testbed& bed = SmallBed();
  ServerOptions options;
  options.num_threads = 1;
  Server server(bed.engine(), options);

  std::vector<api::QueryRequest> requests(3);
  requests[0].keywords = bed.topic(0).keywords;
  requests[1].keywords = bed.topic(1).keywords;
  requests[1].deadline_ms = 1e-6;  // expired before AdmitRequest can look
  requests[2].keywords = bed.topic(2).keywords;
  requests[2].deadline_ms = 5.0;  // admitted, then stalled past budget

  common::FaultSpec stall;
  stall.delay_probability = 1.0;
  stall.delay_ms = 25.0;  // > requests[2].deadline_ms, every lookup
  common::FaultInjector::Global().Configure(
      /*seed=*/3, {{"serve.cache_lookup", stall}});
  auto batch = server.QueryBatch(requests);
  common::FaultInjector::Global().Disable();

  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsResourceExhausted()) << batch.status();
  EXPECT_NE(batch.status().message().find("QueryBatch request #1"),
            std::string::npos)
      << batch.status();

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.requests_failed, 2u);
  // `shed` and `deadline_exceeded` are the `admission` and `deadline`
  // stage series.
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  // The interrupted request must not double-count into the pipeline-stage
  // series it happened to be inside when the budget ran out.
  EXPECT_EQ(stats.expansion_errors, 0u);
  EXPECT_EQ(stats.search_errors, 0u);
}

TEST(ServerTest, QueueDepthBoundShedsWithResourceExhausted) {
  const api::Testbed& bed = SmallBed();
  ServerOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 1;
  Server server(bed.engine(), options);

  // Stall the lone worker so submissions pile up behind it, then keep
  // submitting until the bound trips.  At most 1 + max_queue_depth
  // requests can be in flight, so the third submission must shed.
  common::FaultSpec stall;
  stall.delay_probability = 1.0;
  stall.delay_ms = 30.0;
  common::FaultInjector::Global().Configure(
      /*seed=*/11, {{"serve.pool_dispatch", stall}});
  api::QueryRequest request;
  request.keywords = bed.topic(0).keywords;
  std::vector<std::future<Result<api::QueryResponse>>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(server.Submit(request));
  size_t ok = 0, shed = 0;
  for (auto& future : futures) {
    Result<api::QueryResponse> result = future.get();
    if (result.ok()) {
      ++ok;
    } else {
      EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
      ++shed;
    }
  }
  common::FaultInjector::Global().Disable();
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(server.stats().shed, shed);
}

// A NaN override is rejected before it can reach the cache: a NaN key
// never equals itself, so a cached NaN entry could never be found again,
// and each eviction of one would leave its index node behind.
TEST(ServerTest, NonFiniteOverridesFailWithoutTouchingTheCache) {
  const api::Testbed& bed = SmallBed();
  ServerOptions options;
  options.num_threads = 1;
  options.cache.capacity = 4;
  Server server(bed.engine(), options);

  api::QueryRequest request;
  request.keywords = bed.topic(0).keywords;
  request.overrides.length_decay = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 50; ++i) {
    Result<api::QueryResponse> result = server.Submit(request).get();
    ASSERT_FALSE(result.ok()) << "request " << i;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();
  }
  ASSERT_NE(server.cache(), nullptr);
  ExpansionCacheStats stats = server.cache()->stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  const Status status = server.cache()->CheckInvariants();
  EXPECT_TRUE(status.ok()) << status;
}

/// The global trace log's records, grouped by trace id.
std::map<uint64_t, std::vector<obs::SpanRecord>> TracesInGlobalLog() {
  std::map<uint64_t, std::vector<obs::SpanRecord>> traces;
  for (const obs::SpanRecord& record :
       obs::MetricsRegistry::Global().trace_log().Snapshot()) {
    traces[record.trace_id].push_back(record);
  }
  return traces;
}

/// The stages of `trace`'s roots; every other span's parent must be a
/// span of the same trace.
std::vector<std::string> RootStages(const std::vector<obs::SpanRecord>& trace) {
  std::set<uint64_t> span_ids;
  for (const obs::SpanRecord& record : trace) span_ids.insert(record.span_id);
  std::vector<std::string> roots;
  for (const obs::SpanRecord& record : trace) {
    if (record.parent_span_id == 0) {
      roots.emplace_back(record.stage);
    } else {
      EXPECT_EQ(span_ids.count(record.parent_span_id), 1u)
          << record.stage << "'s parent is not in its trace";
    }
  }
  return roots;
}

// Every span of a served request lands in the one trace log, as one tree.
// A single opens its root `request` span on the worker, so its queue
// wait is in the histogram only; a batch item's trace is rooted at
// `batch` and holds the pool's `queue-wait` record too.
TEST(ServerTest, ServedRequestLeavesOneSpanTree) {
  const api::Testbed& bed = SmallBed();
  const uint32_t sample_every = obs::GetTraceSampleEvery();
  obs::SetTraceSampleEvery(1);
  obs::MetricsRegistry::Global().trace_log().Clear();
  ServerOptions options;
  options.num_threads = 1;
  Server server(bed.engine(), options);

  api::QueryRequest single;
  single.keywords = bed.topic(0).keywords;
  EXPECT_TRUE(server.Submit(single).get().ok());
  std::map<uint64_t, std::vector<obs::SpanRecord>> traces =
      TracesInGlobalLog();
  ASSERT_EQ(traces.size(), 1u);
  const std::vector<obs::SpanRecord>& trace = traces.begin()->second;
  EXPECT_EQ(RootStages(trace), std::vector<std::string>{"request"});
  std::multiset<std::string> stages;
  for (const obs::SpanRecord& record : trace) stages.emplace(record.stage);
  EXPECT_EQ(stages, (std::multiset<std::string>{
                        "request", "cache-lookup", "expander-construction",
                        "expansion", "linking", "ball-extraction",
                        "enumeration", "pruning", "query-prepare", "search"}));

  // Another topic, so the batch item misses the cache too.
  obs::MetricsRegistry::Global().trace_log().Clear();
  api::QueryRequest item;
  item.keywords = bed.topic(1).keywords;
  EXPECT_TRUE(server.QueryBatch({item}).ok());
  traces = TracesInGlobalLog();
  ASSERT_EQ(traces.size(), 1u);
  const std::vector<obs::SpanRecord>& batch_trace = traces.begin()->second;
  EXPECT_EQ(RootStages(batch_trace), std::vector<std::string>{"batch"});
  std::set<std::string> batch_stages;
  for (const obs::SpanRecord& record : batch_trace) {
    batch_stages.emplace(record.stage);
  }
  EXPECT_EQ(batch_stages.count("queue-wait"), 1u);
  EXPECT_EQ(batch_stages.count("request"), 1u);
  EXPECT_EQ(batch_stages.count("search"), 1u);
  obs::SetTraceSampleEvery(sample_every);
}

// An engine with documents but no index refuses a request before it
// expands: nothing is expanded, and no unprepared entry reaches the cache.
TEST(ServerTest, UnindexedEngineFailsBeforeExpanding) {
  const api::Testbed& bed = SmallBed();
  wiki::SyntheticWikipediaOptions wiki_options;
  wiki_options.num_domains = 12;
  auto wiki = wiki::GenerateSyntheticWikipedia(wiki_options);
  ASSERT_TRUE(wiki.ok()) << wiki.status();
  auto engine = api::Engine::Build(std::move(wiki->kb));
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (const ir::Document& doc :
       bed.engine().search_engine().store().documents()) {
    ASSERT_TRUE((*engine)->AddDocument(doc.name, doc.text).ok());
  }
  ServerOptions options;
  options.num_threads = 1;
  Server server(**engine, options);

  api::QueryRequest request;
  request.keywords = bed.topic(0).keywords;
  Result<api::QueryResponse> result = server.Submit(request).get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();
  EXPECT_EQ((*engine)->stats().expand_calls, 0u);
  ASSERT_NE(server.cache(), nullptr);
  EXPECT_EQ(server.cache()->size(), 0u);
}

// The ThreadSanitizer stress case: several caller threads hammer one
// server with a mix of single submissions (checked on their rankings or
// on their expansions) and parallel batches, all against one shared
// engine and cache.  Correctness of every response is checked against
// precomputed sequential answers.
TEST(ServerStressTest, MixedConcurrentCallersProduceSequentialResults) {
  const api::Testbed& bed = SmallBed();
  ServerOptions options;
  options.num_threads = 4;
  options.cache.capacity = 64;
  Server server(bed.engine(), options);

  // Sequential ground truth, one per topic.
  std::vector<api::QueryResponse> expected_query;
  for (size_t t = 0; t < bed.num_topics(); ++t) {
    api::QueryRequest query;
    query.keywords = bed.topic(t).keywords;
    auto q = bed.engine().Query(query);
    ASSERT_TRUE(q.ok()) << q.status();
    expected_query.push_back(std::move(*q));
  }

  constexpr int kCallers = 4;
  constexpr int kRoundsPerCaller = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRoundsPerCaller; ++round) {
        size_t t = static_cast<size_t>(c + round) % bed.num_topics();
        switch ((c + round) % 3) {
          case 0: {  // single query
            api::QueryRequest request;
            request.keywords = bed.topic(t).keywords;
            auto response = server.Submit(std::move(request)).get();
            if (!response.ok() ||
                response->docs != expected_query[t].docs) {
              ++failures;
            }
            break;
          }
          case 1: {  // single query, checked on its expansion
            api::QueryRequest request;
            request.keywords = bed.topic(t).keywords;
            auto response = server.Submit(std::move(request)).get();
            if (!response.ok() ||
                response->expansion.titles !=
                    expected_query[t].expansion.titles) {
              ++failures;
            }
            break;
          }
          default: {  // small batch over all topics
            std::vector<api::QueryRequest> requests(bed.num_topics());
            for (size_t i = 0; i < requests.size(); ++i) {
              requests[i].keywords = bed.topic(i).keywords;
            }
            auto batch = server.QueryBatch(requests);
            if (!batch.ok()) {
              ++failures;
              break;
            }
            for (size_t i = 0; i < batch->size(); ++i) {
              if ((*batch)[i].docs != expected_query[i].docs) ++failures;
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(failures.load(), 0);

  // Counter sanity after the storm: every request did exactly one cache
  // lookup, and every outcome was recorded.
  ASSERT_NE(server.cache(), nullptr);
  ExpansionCacheStats stats = server.cache()->stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.hits + stats.misses, server.stats().requests);
}

}  // namespace
}  // namespace wqe::serve
