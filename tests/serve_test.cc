/// \file serve_test.cc
/// \brief Tests for the `serve::` concurrency subsystem: the thread pool,
/// the sharded expansion cache (keying, LRU, TTL, counters), and the
/// Server's parallel serving — including the determinism contract
/// (parallel rankings bit-identical to sequential) and a mixed
/// multi-threaded stress case meant to run under ThreadSanitizer
/// (`ci.sh` / the CI `tsan` job build this suite with
/// `-fsanitize=thread`).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "api/testbed.h"
#include "common/deadline.h"
#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "serve/expansion_cache.h"
#include "serve/server.h"
#include "serve/thread_pool.h"

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
  // The counter increments after the future is fulfilled, so only a full
  // drain makes it final — don't assert it right after get().
  pool.Shutdown();
  EXPECT_EQ(pool.tasks_executed(), 32u);
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

// Same contract one layer up: RunParallel blocks on futures of tasks it
// just queued, so calling it *from* a worker of the same pool deadlocks
// a bounded pool.  EffectiveParallelism degrades worker callers to
// sequential; bypassing it trips the debug check.
TEST(ThreadPoolDeathTest, RunParallelFromOwnWorkerAssertsInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.Submit([&pool] { RunParallel(&pool, 1, [] {}); }).get();
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
  EXPECT_DOUBLE_EQ(stats.HitRatio(), 0.5);
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

TEST(ExpansionCacheTest, LruEvictsLeastRecentlyUsed) {
  ExpansionCacheOptions options;
  options.capacity = 3;
  options.num_shards = 1;  // one shard → strict global LRU order
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
  options.num_shards = 1;
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

TEST(ExpansionCacheTest, TtlExpiresEntries) {
  ExpansionCacheOptions options;
  options.ttl = std::chrono::milliseconds(30);
  ExpansionCache cache(options);
  cache.Put(MakeKey("a"), MakeResponse("a"));
  ASSERT_NE(cache.Get(MakeKey("a")), nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(cache.Get(MakeKey("a")), nullptr);
  ExpansionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.expirations, 1u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(ExpansionCacheTest, EvictedValueStaysAliveForHolders) {
  ExpansionCacheOptions options;
  options.capacity = 1;
  options.num_shards = 1;
  ExpansionCache cache(options);
  cache.Put(MakeKey("a"), MakeResponse("a"));
  auto held = cache.Get(MakeKey("a"));
  ASSERT_NE(held, nullptr);
  cache.Put(MakeKey("b"), MakeResponse("b"));  // evicts a
  EXPECT_EQ(cache.Get(MakeKey("a")), nullptr);
  EXPECT_EQ(held->expander, "a");  // shared_ptr keeps the value valid
}

// Concurrent TTL-expiry + capacity-eviction churn, with the structural
// validator (LRU ↔ index bijection, occupancy ≤ capacity) interleaved
// live and re-checked after the drain.  Sized to force both eviction
// (tiny per-shard capacity) and expiration (TTL shorter than the run);
// the ci.sh asan lane runs this under ASan+UBSan, where a dangling LRU
// iterator or double-erase in the expiry path would be fatal.
TEST(ExpansionCacheTest, ConcurrentTtlChurnKeepsShardInvariants) {
  ExpansionCacheOptions options;
  options.capacity = 16;
  options.num_shards = 4;
  options.ttl = std::chrono::milliseconds(5);
  ExpansionCache cache(options);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 600;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Overlapping key ranges across threads: hits, refreshes,
        // evictions and expirations all mix on the same shards.
        std::string key = "k" + std::to_string((t * 17 + i) % 48);
        if (i % 3 == 0) {
          cache.Put(MakeKey(key), MakeResponse(key));
        } else {
          auto hit = cache.Get(MakeKey(key));
          if (hit != nullptr) {
            EXPECT_FALSE(hit->expander.empty());
          }
        }
        if (i % 100 == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
    });
  }
  // A validator thread audits the shards while the churn is running —
  // CheckShardInvariants locks shard by shard, so this also exercises
  // the lock discipline the annotations promise.
  std::thread auditor([&cache, &stop] {
    while (!stop.load()) {
      auto status = cache.CheckShardInvariants();
      EXPECT_TRUE(status.ok()) << status;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& worker : workers) worker.join();
  stop.store(true);
  auditor.join();

  auto status = cache.CheckShardInvariants();
  EXPECT_TRUE(status.ok()) << status;
  ExpansionCacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, options.capacity);
  EXPECT_GT(stats.evictions + stats.expirations, 0u)
      << "churn never aged or evicted anything — test is under-sized";
  // Let everything expire, then confirm expiry leaves the structures
  // bijective too (expired entries are torn out of both containers).
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (int i = 0; i < 48; ++i) {
    EXPECT_EQ(cache.Get(MakeKey("k" + std::to_string(i))), nullptr);
  }
  status = cache.CheckShardInvariants();
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ExpansionCacheTest, ShardCountRoundsUpAndClearDropsEverything) {
  ExpansionCacheOptions options;
  options.capacity = 64;
  options.num_shards = 5;  // → 8
  ExpansionCache cache(options);
  EXPECT_EQ(cache.num_shards(), 8u);
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

TEST(ServerTest, WrappingLocksTheRegistry) {
  api::TestbedOptions options;
  options.wiki.num_domains = 8;
  options.track.num_topics = 2;
  auto bed = api::Testbed::Build(options);
  ASSERT_TRUE(bed.ok()) << bed.status();
  EXPECT_FALSE((*bed)->engine().registry_locked());
  Server server((*bed)->engine());
  EXPECT_TRUE((*bed)->engine().registry_locked());
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

TEST(ServerTest, SubmitExpandHitsCacheOnRepeat) {
  const api::Testbed& bed = SmallBed();
  ServerOptions options;
  options.num_threads = 2;
  Server server(bed.engine(), options);

  api::ExpandRequest request;
  request.keywords = bed.topic(1).keywords;
  size_t expanded_before = bed.engine().stats().expand_calls;

  auto first = server.SubmitExpand(request).get();
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = server.SubmitExpand(request).get();
  ASSERT_TRUE(second.ok()) << second.status();

  EXPECT_EQ(second->feature_articles, first->feature_articles);
  EXPECT_EQ(second->titles, first->titles);
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
  // A private registry isolates this server's instruments from every
  // other test's servers (each stack would otherwise share the global
  // registry under fresh instance labels — correct, but noisy to query).
  obs::MetricsRegistry registry;
  ServerOptions options;
  options.registry = &registry;
  Server server(bed.engine(), options);

  api::QueryRequest good;
  good.keywords = bed.topic(0).keywords;
  ASSERT_TRUE(server.Submit(good).get().ok());

  api::QueryRequest bad;
  bad.keywords = bed.topic(1).keywords;
  bad.expander = "warp-drive";
  Result<api::QueryResponse> failed = server.Submit(std::move(bad)).get();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsNotFound());

  ServerSnapshot snapshot = server.StatsSnapshot();
  EXPECT_EQ(snapshot.server.requests, 2u);
  EXPECT_EQ(snapshot.server.requests_failed, 1u);
  if (obs::kCompiledIn) {
    // Failures are latencies too: both requests landed in the histogram.
    EXPECT_EQ(snapshot.request_latency_ms.count, 2u);
  }
  // The per-stage error series names the stage that failed (the unknown
  // strategy dies in expander construction) and nothing else.
  const std::string prom = registry.DumpPrometheus();
  EXPECT_NE(prom.find("stage=\"expander-construction\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("stage=\"expansion\"} 0"), std::string::npos) << prom;
  EXPECT_NE(prom.find("stage=\"search\"} 0"), std::string::npos) << prom;
}

TEST(ServerTest, MixedBatchAttributesShedAndDeadlineOutcomes) {
  // One batch, three fates: #0 completes, #1 is shed at admission (its
  // budget is already spent when it arrives), #2 is admitted but blows
  // its deadline inside the worker (an injected cache-lookup stall eats
  // the whole budget).  The batch stays fail-atomic — the lowest failing
  // index (#1, the shed) names the error — and each outcome lands in its
  // own stage counter exactly once.
  const api::Testbed& bed = SmallBed();
  obs::MetricsRegistry registry;
  ServerOptions options;
  options.registry = &registry;
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
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  const std::string prom = registry.DumpPrometheus();
  EXPECT_NE(prom.find("stage=\"admission\"} 1"), std::string::npos) << prom;
  EXPECT_NE(prom.find("stage=\"deadline\"} 1"), std::string::npos) << prom;
  // The interrupted request must not double-count into the pipeline-stage
  // series it happened to be inside when the budget ran out.
  EXPECT_NE(prom.find("stage=\"expansion\"} 0"), std::string::npos) << prom;
  EXPECT_NE(prom.find("stage=\"search\"} 0"), std::string::npos) << prom;
}

TEST(ServerTest, QueueDepthBoundShedsWithResourceExhausted) {
  const api::Testbed& bed = SmallBed();
  obs::MetricsRegistry registry;
  ServerOptions options;
  options.registry = &registry;
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

TEST(ServerTest, CancelTokenFailsRequestAsCancelled) {
  const api::Testbed& bed = SmallBed();
  ServerOptions options;
  options.num_threads = 1;
  Server server(bed.engine(), options);

  common::CancelSource source;
  source.RequestCancel();  // cancelled before the worker ever runs
  api::QueryRequest request;
  request.keywords = bed.topic(0).keywords;
  request.cancel = source.token();
  Result<api::QueryResponse> result = server.Submit(request).get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
}

#ifndef NDEBUG
// The registry-freeze contract (satellite): mutating the registry after a
// serve::Server wraps the engine trips WQE_DCHECK.  Only meaningful in
// builds without NDEBUG — the CI TSan job compiles with
// -DCMAKE_BUILD_TYPE=Debug precisely so this path is exercised.
TEST(ServerDeathTest, LateRegistryMutationAssertsInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  api::TestbedOptions options;
  options.wiki.num_domains = 8;
  options.track.num_topics = 2;
  auto bed = api::Testbed::Build(options);
  ASSERT_TRUE(bed.ok()) << bed.status();
  api::Engine& engine = (*bed)->engine();
  EXPECT_NO_FATAL_FAILURE(engine.registry());  // fine before serving
  Server server(engine);
  EXPECT_DEATH(engine.registry(), "registry_locked");
}
#endif  // NDEBUG

// The ThreadSanitizer stress case: several caller threads hammer one
// server with a mix of single Expand/Query submissions and parallel
// batches, all against one shared engine and cache.  Correctness of every
// response is checked against precomputed sequential answers.
TEST(ServerStressTest, MixedConcurrentCallersProduceSequentialResults) {
  const api::Testbed& bed = SmallBed();
  ServerOptions options;
  options.num_threads = 4;
  options.cache.capacity = 64;
  options.cache.num_shards = 4;
  Server server(bed.engine(), options);

  // Sequential ground truth, one per topic.
  std::vector<api::QueryResponse> expected_query;
  std::vector<api::ExpandResponse> expected_expand;
  for (size_t t = 0; t < bed.num_topics(); ++t) {
    api::QueryRequest query;
    query.keywords = bed.topic(t).keywords;
    auto q = bed.engine().Query(query);
    ASSERT_TRUE(q.ok()) << q.status();
    expected_query.push_back(std::move(*q));
    api::ExpandRequest expand;
    expand.keywords = bed.topic(t).keywords;
    auto e = bed.engine().Expand(expand);
    ASSERT_TRUE(e.ok()) << e.status();
    expected_expand.push_back(std::move(*e));
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
          case 1: {  // single expand
            api::ExpandRequest request;
            request.keywords = bed.topic(t).keywords;
            auto response = server.SubmitExpand(std::move(request)).get();
            if (!response.ok() ||
                response->titles != expected_expand[t].titles) {
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
