/// \file perf_parallel_serving.cc
/// \brief E13 — concurrent serving through `serve::Server`.
///
/// Replays a Zipfian query mix (the heavy-tailed shape real query logs
/// have) over the Testbed track three ways:
///
///   1. sequential `Engine::QueryBatch` — the PR-1 baseline;
///   2. parallel `serve::Server::QueryBatch` at 1/2/4 worker threads with
///      the expansion cache disabled — pure thread-pool scaling;
///   3. two passes through a cache-enabled server — the second pass must
///      serve (almost) every expansion from the sharded LRU.
///
/// Hard correctness checks (aborts, not just reporting):
///   - every parallel ranking is document-identical to the sequential one;
///   - cache hits are counter-verified from the cache's own counters,
///     with every warm-pass request a hit (> 0.9 hit ratio);
///   - with ≥ 4 hardware threads, 4 workers must reach ≥ 2× the 1-worker
///     QueryBatch throughput (reported either way on smaller machines);
///   - the observability instrumentation costs ≤ 2% on the warm-cache
///     path (min-of-5 alternating reps with the runtime kill switch).
///
/// SLO records: each server runs against its own `obs::MetricsRegistry`,
/// and the per-request latency histogram's p50/p99 land in the BENCH
/// JSON per configuration (`latency_p50_ms` / `latency_p99_ms`; the warm
/// cached pass via a snapshot delta).  bench_compare.py treats them as
/// informational until a latency baseline is committed.

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "serve/server.h"

using namespace wqe;

namespace {

std::vector<api::QueryRequest> ZipfianRequests(const api::Testbed& bed,
                                               size_t count) {
  std::vector<uint32_t> mix = bench::ZipfianRequestMix(
      count, static_cast<uint32_t>(bed.num_topics()), /*s=*/1.0,
      /*seed=*/0xbeef);
  std::vector<api::QueryRequest> requests;
  requests.reserve(mix.size());
  for (uint32_t topic : mix) {
    api::QueryRequest request;
    request.keywords = bed.topic(topic).keywords;
    request.expander = "cycle";
    requests.push_back(std::move(request));
  }
  return requests;
}

void CheckIdenticalRankings(const std::vector<api::QueryResponse>& got,
                            const std::vector<api::QueryResponse>& want) {
  WQE_CHECK(got.size() == want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    WQE_CHECK(got[i].docs == want[i].docs);
    WQE_CHECK(got[i].expansion.titles == want[i].expansion.titles);
  }
}

}  // namespace

int main() {
  const api::Testbed& bed = bench::GetBenchTestbed();
  const api::Engine& engine = bed.engine();
  const std::vector<api::QueryRequest> requests =
      ZipfianRequests(bed, 4 * bed.num_topics());
  const size_t n = requests.size();

  // Sequential baseline and reference rankings.
  Stopwatch watch;
  auto sequential = engine.QueryBatch(requests);
  WQE_CHECK_OK(sequential.status());
  double sequential_ms = watch.ElapsedMillis();

  TablePrinter table("E13 — parallel serving throughput (Zipfian mix, s=1)");
  table.SetHeader(
      {"path", "threads", "requests", "total ms", "req/s", "speedup"});
  auto add_row = [&](const char* path, size_t threads, double ms) {
    table.AddRow({path, std::to_string(threads), std::to_string(n),
                  FormatDouble(ms, 1),
                  FormatDouble(1000.0 * static_cast<double>(n) / ms, 1),
                  FormatDouble(sequential_ms / ms, 2)});
  };
  add_row("Engine::QueryBatch (seq)", 1, sequential_ms);

  const std::string config = "requests=" + std::to_string(n);
  bench::BenchJsonWriter json("perf_parallel_serving");
  json.Add("engine_query_batch", "total_ms", sequential_ms, config);

  // Thread-pool scaling, cache off: same work, more workers.
  double one_thread_ms = 0.0;
  double four_thread_ms = 0.0;
  for (size_t threads : {1u, 2u, 4u}) {
    // Per-configuration registry (declared before the server, which
    // borrows it): clean percentiles, no cross-config bleed.
    obs::MetricsRegistry registry;
    serve::ServerOptions options;
    options.num_threads = threads;
    options.enable_cache = false;
    options.registry = &registry;
    serve::Server server(engine, options);
    watch.Reset();
    auto parallel = server.QueryBatch(requests);
    double ms = watch.ElapsedMillis();
    WQE_CHECK_OK(parallel.status());
    CheckIdenticalRankings(*parallel, *sequential);
    add_row("serve::Server::QueryBatch", threads, ms);
    const std::string name = "server_query_batch_t" + std::to_string(threads);
    json.Add(name, "total_ms", ms, config);
    const obs::HistogramSnapshot latency =
        server.StatsSnapshot().request_latency_ms;
    json.Add(name, "latency_p50_ms", latency.Percentile(0.5), config);
    json.Add(name, "latency_p99_ms", latency.Percentile(0.99), config);
    if (threads == 1) one_thread_ms = ms;
    if (threads == 4) four_thread_ms = ms;
  }

  // Cache effectiveness: cold pass then warm pass, counter-verified.
  obs::MetricsRegistry cached_registry;
  serve::ServerOptions cached;
  cached.num_threads = 4;
  cached.cache.capacity = 4096;
  cached.registry = &cached_registry;
  serve::Server server(engine, cached);

  watch.Reset();
  auto cold = server.QueryBatch(requests);
  double cold_ms = watch.ElapsedMillis();
  WQE_CHECK_OK(cold.status());
  size_t cold_hits = server.cache()->stats().hits;
  const obs::HistogramSnapshot cold_latency =
      server.StatsSnapshot().request_latency_ms;

  watch.Reset();
  auto warm = server.QueryBatch(requests);
  double warm_ms = watch.ElapsedMillis();
  WQE_CHECK_OK(warm.status());
  serve::ExpansionCacheStats cache_stats = server.cache()->stats();
  size_t warm_hits = cache_stats.hits - cold_hits;
  // The histogram accumulates; the warm pass's distribution is the
  // difference of the two snapshots.
  const obs::HistogramSnapshot warm_latency =
      server.StatsSnapshot().request_latency_ms.DeltaSince(cold_latency);

  CheckIdenticalRankings(*cold, *sequential);
  CheckIdenticalRankings(*warm, *sequential);
  // The warm pass must hit on every request, and every lookup of both
  // passes is a hit or a miss.  (cold_hits itself is scheduling-
  // dependent — two in-flight requests for one key can both miss — so it
  // is never printed; see the verify skill's deterministic-output
  // contract.)
  WQE_CHECK(warm_hits == n);
  WQE_CHECK(cache_stats.hits + cache_stats.misses == 2 * n);
  double warm_ratio =
      static_cast<double>(warm_hits) / static_cast<double>(n);
  WQE_CHECK(warm_ratio > 0.9);

  add_row("cached Server (cold)", 4, cold_ms);
  add_row("cached Server (warm)", 4, warm_ms);
  table.Print();

  std::set<std::string> distinct_keys;
  for (const api::QueryRequest& request : requests) {
    distinct_keys.insert(request.keywords);
  }
  std::printf(
      "\nrankings identical across all paths (%zu requests, %zu distinct, "
      "%zu topics)\n"
      "warm-pass cache hit ratio: %.3f (%zu/%zu, counter-verified)\n",
      n, distinct_keys.size(), bed.num_topics(), warm_ratio, warm_hits, n);

  unsigned hw = std::thread::hardware_concurrency();
  double speedup = one_thread_ms / four_thread_ms;
  std::printf("4-thread speedup over 1 thread: %.2fx on %u hardware "
              "thread(s)\n", speedup, hw);
  if (hw >= 4) {
    WQE_CHECK(speedup >= 2.0);  // the ISSUE-2 acceptance bar
  } else {
    std::printf("(< 4 hardware threads: the >= 2x acceptance check is "
                "skipped on this machine)\n");
  }

  json.Add("cached_server_cold", "total_ms", cold_ms, config);
  json.Add("cached_server_cold", "latency_p50_ms", cold_latency.Percentile(0.5),
           config);
  json.Add("cached_server_cold", "latency_p99_ms",
           cold_latency.Percentile(0.99), config);
  json.Add("cached_server_warm", "total_ms", warm_ms, config);
  json.Add("cached_server_warm", "latency_p50_ms", warm_latency.Percentile(0.5),
           config);
  json.Add("cached_server_warm", "latency_p99_ms",
           warm_latency.Percentile(0.99), config);
  json.Add("cached_server_warm", "hit_ratio", warm_ratio, config);
  json.Add("server_query_batch_t4", "speedup_vs_t1", speedup, config);

  // Instrumentation overhead: alternate the runtime kill switch over
  // repeated warm-cache batches (every expansion hits, so the serve path
  // itself — spans, histogram records, counters — dominates what the
  // switch toggles).  Paired design for a noisy 1-vCPU container: each
  // rep times both arms back-to-back (three batches per timed region so
  // ~20 ms dwarfs scheduler jitter; arm order flips per rep so warm-up
  // drift cancels), a shared slow phase cancels in the per-rep
  // difference, and the median over reps discards outlier pairs that a
  // min-vs-min comparison would let a single fast window distort.
  constexpr int kReps = 15;
  double diff_ms[kReps];
  double off_ms[kReps];
  for (int rep = 0; rep < kReps; ++rep) {
    const bool first_on = rep % 2 == 0;
    double arm_ms[2] = {0.0, 0.0};  // [0] = on, [1] = off
    for (bool enabled : {first_on, !first_on}) {
      obs::SetEnabled(enabled);
      watch.Reset();
      for (int pass = 0; pass < 3; ++pass) {
        WQE_CHECK_OK(server.QueryBatch(requests).status());
      }
      arm_ms[enabled ? 0 : 1] = watch.ElapsedMillis();
    }
    diff_ms[rep] = arm_ms[0] - arm_ms[1];
    off_ms[rep] = arm_ms[1];
  }
  obs::SetEnabled(true);
  std::sort(diff_ms, diff_ms + kReps);
  std::sort(off_ms, off_ms + kReps);
  const double median_off = off_ms[kReps / 2];
  const double overhead_pct =
      std::max(0.0, diff_ms[kReps / 2] / median_off * 100.0);
  // Measurement-quality gate, same spirit as the >= 2x speedup check
  // above: the inter-quartile spread of the paired diffs is the noise
  // floor of this box right now; the 2% bar is only decidable when the
  // spread can resolve half of it.  (A quiet multi-core host easily
  // does; a busy 1-vCPU container often cannot.)
  const double iqr_ms = diff_ms[(3 * kReps) / 4] - diff_ms[kReps / 4];
  const bool measurable = iqr_ms <= 0.01 * median_off;
  std::printf("observability overhead on warm-cache batches: %.2f%% "
              "(median paired on-off diff %.2f ms over %d triple-batch "
              "reps, median off %.1f ms, diff IQR %.2f ms)\n",
              overhead_pct, diff_ms[kReps / 2], kReps, median_off, iqr_ms);
  json.Add("obs_overhead", "overhead_pct", overhead_pct, config);
  if (measurable) {
    WQE_CHECK(overhead_pct <= 2.0);  // the ISSUE-7 acceptance bar
  } else {
    std::printf("(diff IQR above 1%% of the baseline: machine too noisy "
                "to resolve the <= 2%% overhead bar; check skipped)\n");
  }

  // --- Traffic-replay scenarios (ROADMAP item 5's second half). ---
  // Three workload shapes real frontends produce that the uniform-Zipfian
  // batch above does not: multi-tenant skew mixes, cache-hostile key
  // churn, and bursty arrivals.  Each runs against its own registry and
  // emits its own SLO records; rankings stay counter- and
  // content-verified against the sequential reference.

  auto requests_for_topics = [&](const std::vector<uint32_t>& topics) {
    std::vector<api::QueryRequest> out;
    out.reserve(topics.size());
    for (uint32_t t : topics) {
      api::QueryRequest request;
      request.keywords = bed.topic(t).keywords;
      request.expander = "cycle";
      out.push_back(std::move(request));
    }
    return out;
  };

  // Scenario 1: mixed Zipfian tenants.  Three tenants own disjoint topic
  // slices with different skew exponents; a fair frontend drains their
  // queues round-robin, so the server sees their streams interleaved —
  // the cache must hold three hot sets at once.
  {
    const uint32_t num_topics = static_cast<uint32_t>(bed.num_topics());
    const uint32_t slice = std::max(1u, num_topics / 3);
    const double skews[3] = {0.8, 1.1, 1.4};
    std::vector<std::vector<uint32_t>> tenants;
    for (uint32_t t = 0; t < 3; ++t) {
      std::vector<uint32_t> mix = bench::ZipfianRequestMix(
          num_topics, slice, skews[t], /*seed=*/0x5eed0 + t);
      for (uint32_t& topic : mix) {
        topic = std::min(num_topics - 1, topic + t * slice);
      }
      tenants.push_back(std::move(mix));
    }
    std::vector<uint32_t> interleaved;
    for (size_t i = 0; i < num_topics; ++i) {
      for (uint32_t t = 0; t < 3; ++t) interleaved.push_back(tenants[t][i]);
    }
    const std::vector<api::QueryRequest> tenant_requests =
        requests_for_topics(interleaved);
    auto reference = engine.QueryBatch(tenant_requests);
    WQE_CHECK_OK(reference.status());

    obs::MetricsRegistry tenant_registry;
    serve::ServerOptions tenant_options;
    tenant_options.num_threads = 4;
    tenant_options.registry = &tenant_registry;
    serve::Server tenant_server(engine, tenant_options);
    watch.Reset();
    auto got = tenant_server.QueryBatch(tenant_requests);
    const double tenant_ms = watch.ElapsedMillis();
    WQE_CHECK_OK(got.status());
    CheckIdenticalRankings(*got, *reference);
    const obs::HistogramSnapshot tenant_latency =
        tenant_server.StatsSnapshot().request_latency_ms;
    const std::string tenant_config =
        "requests=" + std::to_string(tenant_requests.size()) + ";tenants=3";
    json.Add("tenant_mix", "total_ms", tenant_ms, tenant_config);
    json.Add("tenant_mix", "latency_p50_ms", tenant_latency.Percentile(0.5),
             tenant_config);
    json.Add("tenant_mix", "latency_p99_ms", tenant_latency.Percentile(0.99),
             tenant_config);
    std::printf("\ntenant mix: %zu requests, 3 tenants, rankings identical, "
                "p50 %.2f ms / p99 %.2f ms\n",
                tenant_requests.size(), tenant_latency.Percentile(0.5),
                tenant_latency.Percentile(0.99));
  }

  // Scenario 2: adversarial key churn.  A strict-LRU cache far smaller
  // than the key space, swept sequentially — the classic scan pattern
  // where every access evicts the entry that will be needed next sweep.
  // The cache degrades to pure overhead (hit ratio ~0) but results stay
  // correct; the p99 here is the SLO of a cache-defeated server.
  {
    std::vector<uint32_t> sweep;
    for (int pass = 0; pass < 3; ++pass) {
      for (uint32_t t = 0; t < bed.num_topics(); ++t) sweep.push_back(t);
    }
    const std::vector<api::QueryRequest> churn_requests =
        requests_for_topics(sweep);
    auto reference = engine.QueryBatch(churn_requests);
    WQE_CHECK_OK(reference.status());

    obs::MetricsRegistry churn_registry;
    serve::ServerOptions churn_options;
    churn_options.num_threads = 4;
    churn_options.cache.capacity = 8;  // << distinct keys: every sweep misses
    churn_options.cache.num_shards = 1;
    churn_options.registry = &churn_registry;
    serve::Server churn_server(engine, churn_options);
    watch.Reset();
    auto got = churn_server.QueryBatch(churn_requests);
    const double churn_ms = watch.ElapsedMillis();
    WQE_CHECK_OK(got.status());
    CheckIdenticalRankings(*got, *reference);
    serve::ExpansionCacheStats churn_stats = churn_server.cache()->stats();
    const double churn_ratio =
        churn_stats.hits + churn_stats.misses == 0
            ? 0.0
            : static_cast<double>(churn_stats.hits) /
                  static_cast<double>(churn_stats.hits + churn_stats.misses);
    // Concurrent in-flight requests for one key can dedupe-hit, so the
    // floor is not exactly 0; the stream must still defeat the cache.
    WQE_CHECK(churn_ratio < 0.5);
    WQE_CHECK(churn_stats.evictions > 0);
    const obs::HistogramSnapshot churn_latency =
        churn_server.StatsSnapshot().request_latency_ms;
    const std::string churn_config =
        "requests=" + std::to_string(churn_requests.size()) +
        ";cache_capacity=8";
    json.Add("adversarial_churn", "total_ms", churn_ms, churn_config);
    json.Add("adversarial_churn", "latency_p50_ms",
             churn_latency.Percentile(0.5), churn_config);
    json.Add("adversarial_churn", "latency_p99_ms",
             churn_latency.Percentile(0.99), churn_config);
    json.Add("adversarial_churn", "hit_ratio", churn_ratio, churn_config);
    std::printf("adversarial churn: %zu requests, hit ratio %.3f "
                "(%zu evictions), p50 %.2f ms / p99 %.2f ms\n",
                churn_requests.size(), churn_ratio, churn_stats.evictions,
                churn_latency.Percentile(0.5),
                churn_latency.Percentile(0.99));
  }

  // Scenario 3: bursty arrivals.  Requests land in bursts of 32 through
  // `Submit` with a full drain between bursts — queue-wait spikes at the
  // head of each burst are exactly what the p99 should surface relative
  // to the smooth-batch runs above.
  {
    auto reference = engine.QueryBatch(requests);
    WQE_CHECK_OK(reference.status());
    obs::MetricsRegistry burst_registry;
    serve::ServerOptions burst_options;
    burst_options.num_threads = 4;
    burst_options.enable_cache = false;
    burst_options.registry = &burst_registry;
    serve::Server burst_server(engine, burst_options);

    constexpr size_t kBurst = 32;
    std::vector<api::QueryResponse> responses;
    responses.reserve(n);
    watch.Reset();
    for (size_t begin = 0; begin < n; begin += kBurst) {
      const size_t end = std::min(n, begin + kBurst);
      std::vector<std::future<Result<api::QueryResponse>>> inflight;
      inflight.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        inflight.push_back(burst_server.Submit(requests[i]));
      }
      for (auto& f : inflight) {
        auto r = f.get();
        WQE_CHECK_OK(r.status());
        responses.push_back(std::move(*r));
      }
    }
    const double burst_ms = watch.ElapsedMillis();
    CheckIdenticalRankings(responses, *reference);
    const obs::HistogramSnapshot burst_latency =
        burst_server.StatsSnapshot().request_latency_ms;
    const std::string burst_config =
        "requests=" + std::to_string(n) + ";burst=32";
    json.Add("bursty_arrivals", "total_ms", burst_ms, burst_config);
    json.Add("bursty_arrivals", "latency_p50_ms",
             burst_latency.Percentile(0.5), burst_config);
    json.Add("bursty_arrivals", "latency_p99_ms",
             burst_latency.Percentile(0.99), burst_config);
    std::printf("bursty arrivals: %zu requests in bursts of %zu, rankings "
                "identical, p50 %.2f ms / p99 %.2f ms\n",
                n, kBurst, burst_latency.Percentile(0.5),
                burst_latency.Percentile(0.99));
  }

  // Scenario 4: deadline-bounded overload.  A small server (2 workers, a
  // short queue, a default per-request deadline) is flooded with three
  // copies of the mix submitted all at once — far more than the budget
  // can serve.  Admission control must shed the overflow and the
  // deadline must fail what slips past it; what matters for the SLO is
  // that every survivor is still reference-identical and the post-shed
  // p99 stays bounded near the deadline instead of growing with the
  // backlog.  `shed_rate` and the post-shed `latency_p99_ms` land in the
  // BENCH JSON (informational in bench_compare.py: the rate is a policy
  // outcome, not a regression axis).
  {
    serve::ServerOptions overload_options;
    overload_options.num_threads = 2;
    overload_options.enable_cache = false;
    overload_options.max_queue_depth = 8;
    overload_options.default_deadline_ms = 50.0;
    obs::MetricsRegistry overload_registry;
    overload_options.registry = &overload_registry;
    serve::Server overload_server(engine, overload_options);

    std::vector<std::future<Result<api::QueryResponse>>> inflight;
    std::vector<size_t> origin;  // request index behind each future
    inflight.reserve(3 * n);
    origin.reserve(3 * n);
    watch.Reset();
    for (int copy = 0; copy < 3; ++copy) {
      for (size_t i = 0; i < n; ++i) {
        inflight.push_back(overload_server.Submit(requests[i]));
        origin.push_back(i);
      }
    }
    size_t served = 0, shed = 0, late = 0;
    for (size_t f = 0; f < inflight.size(); ++f) {
      Result<api::QueryResponse> result = inflight[f].get();
      if (result.ok()) {
        ++served;
        WQE_CHECK(result->docs == (*sequential)[origin[f]].docs);
        WQE_CHECK(result->expansion.titles ==
                  (*sequential)[origin[f]].expansion.titles);
      } else if (result.status().IsResourceExhausted()) {
        ++shed;
      } else if (result.status().IsDeadlineExceeded()) {
        ++late;
      } else {
        WQE_CHECK(false);  // only shed/deadline outcomes are acceptable
      }
    }
    const double overload_ms = watch.ElapsedMillis();
    WQE_CHECK(served + shed + late == inflight.size());
    WQE_CHECK(shed > 0);  // a 3x flood against depth 8 must trip admission
    serve::ServerStats overload_stats = overload_server.stats();
    WQE_CHECK(overload_stats.shed == shed);
    WQE_CHECK(overload_stats.deadline_exceeded == late);

    // Recovery trickle: once the flood drains, requests carrying a
    // generous per-request deadline override must get through — shedding
    // is load-proportional, not sticky.  (On a 1-vCPU box the 50 ms
    // default can legitimately shed or expire the whole flood; the
    // override path is what guarantees survivors to diff.)
    for (size_t i = 0; i < 8; ++i) {
      api::QueryRequest request = requests[i % n];
      request.deadline_ms = 10'000.0;
      auto result = overload_server.Submit(std::move(request)).get();
      WQE_CHECK_OK(result.status());
      WQE_CHECK(result->docs == (*sequential)[i % n].docs);
      ++served;
    }
    const double shed_rate =
        static_cast<double>(shed + late) / static_cast<double>(inflight.size());
    const obs::HistogramSnapshot overload_latency =
        overload_server.StatsSnapshot().request_latency_ms;
    const std::string overload_config =
        "requests=" + std::to_string(inflight.size()) +
        ";queue_depth=8;deadline_ms=50";
    json.Add("deadline_overload", "total_ms", overload_ms, overload_config);
    json.Add("deadline_overload", "shed_rate", shed_rate, overload_config);
    json.Add("deadline_overload", "latency_p99_ms",
             overload_latency.Percentile(0.99), overload_config);
    std::printf("deadline overload: %zu flooded + 8 recovery, %zu served / "
                "%zu shed / %zu past deadline (flood shed rate %.3f), "
                "post-shed p99 %.2f ms\n",
                inflight.size(), served, shed, late, shed_rate,
                overload_latency.Percentile(0.99));
  }

  json.Write();
  return 0;
}
