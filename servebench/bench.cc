#include "bench.h"

#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checker.h"
#include "common/macros.h"
#include "client.h"
#include "probe.h"
#include "stats.h"
#include "trace.h"

namespace servebench {

namespace {

/// Publishes timed after the stream on workloads that do not publish
/// during it, so `publish_p50_ms` exists on every workload.
constexpr size_t kIdlePublishes = 10;
/// Recorded keys re-run through a sequential `Engine::Query`.
constexpr size_t kReferenceSample = 24;
/// `republish` publishes before every this-many-th request: often enough
/// for about 25 publishes in a 20 s run, rarely enough that the requests
/// queued behind the refills stay well under half, so the median stays a
/// hit's latency instead of flipping between a hit's and a refill's.
constexpr size_t kPublishEvery = 10000;
/// Requests outstanding on the hot-set workloads.
constexpr size_t kHotWindow = 32;
/// A timed stream runs past `seconds` until it has sent this many
/// requests, so its median rests on enough of them.
constexpr size_t kMinTimedRequests = 1000;

/// The stream shape of each workload.
StreamConfig WorkloadConfig(Workload workload, uint32_t num_topics) {
  StreamConfig config;
  switch (workload) {
    case Workload::kColdMiss:
      config.window = 1;
      config.fresh_server_every = num_topics;
      break;
    case Workload::kHotHits:
      config.window = kHotWindow;
      break;
    case Workload::kRepublish:
      config.window = kHotWindow;
      config.publish_every = kPublishEvery;
      break;
  }
  return config;
}

/// Requests in each traced stream: one pass over the topics on
/// `cold_miss`, five publishes on `republish`.
size_t TracedRequests(Workload workload, uint32_t num_topics) {
  switch (workload) {
    case Workload::kColdMiss:
      return num_topics;
    case Workload::kHotHits:
      return 30000;
    case Workload::kRepublish:
      return 6 * kPublishEvery;
  }
  return 0;
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the peak
/// excludes input generation.
void ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  if (!clear_refs) {
    std::cerr << "servebench: cannot reset the peak RSS; peak_rss_mb "
                 "includes input generation\n";
  }
}

/// VmHWM of this process, in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::nan("");
}

void Add(Outcome* out, std::string name, double value, const char* unit) {
  out->metrics.push_back(Metric{std::move(name), value, unit});
}

/// Adds `name.p50` and, when the sample supports it, `name.p99`.
void AddTimings(Outcome* out, const std::string& name,
                const std::vector<double>& samples, const char* unit) {
  if (samples.empty()) return;
  Add(out, name + ".p50", Median(samples), unit);
  if (std::optional<double> p99 = TailPercentile(samples, 0.99)) {
    Add(out, name + ".p99", *p99, unit);
  }
}

template <typename Record>
std::vector<double> Field(const std::vector<Record>& records,
                          double Record::*field) {
  std::vector<double> values;
  for (const Record& record : records) values.push_back(record.*field);
  return values;
}

/// Share of the untraced stream's summed latency that no layer accounts
/// for: per request, the traced Submit time, the replayed cache lookup,
/// retrieval, and on a replayed miss the expansion; plus all queue wait.
double UnattributedShare(const StreamResult& untraced,
                         const StreamResult& traced, const ProbeResult& probe) {
  double latency = 0.0;
  double attributed = untraced.queue_wait.sum;
  for (size_t i = 0; i < untraced.topics.size(); ++i) {
    if (std::isnan(untraced.latency_ms[i])) continue;
    const uint32_t topic = untraced.topics[i];
    latency += untraced.latency_ms[i];
    attributed += traced.submit_us[i] / 1e3 + probe.cache_get_us[i] / 1e3 +
                  probe.search_cost_ms[topic] +
                  (probe.replay_miss[i] ? probe.expand_cost_ms[topic] : 0.0);
  }
  return 1.0 - attributed / latency;
}

/// Wall-clock throughput and tail latency of a stream.  They swing with
/// the host's CPU steal (see README.md), so they are per-layer metrics of
/// the traced run, not bounded end-to-end ones.
void ReportWallClock(const StreamResult& result, Outcome* out) {
  const std::vector<double> latencies = result.ok_latencies();
  Add(out, "serve.throughput_qps",
      static_cast<double>(latencies.size()) / result.wall_s, "1/s");
  for (double p : {0.9, 0.99}) {
    if (std::optional<double> tail = TailPercentile(latencies, p)) {
      Add(out, p == 0.9 ? "serve.latency_p90_ms" : "serve.latency_p99_ms",
          *tail, "ms");
    }
  }
}

void ReportEndToEnd(const StreamResult& result,
                    const std::vector<PublishTimes>& publishes,
                    const std::vector<SetupTimes>& setups, Outcome* out) {
  const std::vector<double> latencies = result.ok_latencies();
  if (!latencies.empty()) {
    Add(out, "latency_p50_ms", Median(latencies), "ms");
  }
  Add(out, "cpu_us_per_request",
      result.cpu_s * 1e6 / static_cast<double>(result.topics.size()), "us");
  if (!publishes.empty()) {
    std::vector<double> total_ms;
    for (const PublishTimes& p : publishes) total_ms.push_back(p.total_ms());
    Add(out, "publish_p50_ms", Median(total_ms), "ms");
  }
  Add(out, "setup_s", Median(Field(setups, &SetupTimes::total_s)), "s");
  Add(out, "peak_rss_mb", PeakRssMb(), "MiB");
}

void ReportLayers(const Inputs& inputs, const StreamResult& untraced,
                  const StreamResult& traced, const ProbeResult& probe,
                  const std::vector<PublishTimes>& publishes,
                  const std::vector<SetupTimes>& setups, Outcome* out) {
  AddTimings(out, "graph.dfs_ms", probe.dfs_ms, "ms");
  Add(out, "graph.cycles_visited", probe.cycles_visited, "count");
  AddTimings(out, "graph.scoring_ms", probe.scoring_ms, "ms");
  Add(out, "graph.cycles_accepted", probe.cycles_accepted, "count");
  AddTimings(out, "graph.prune_ms", probe.prune_ms, "ms");
  Add(out, "graph.prune_survivors", probe.prune_survivors, "count");
  AddTimings(out, "wiki.ball_ms", probe.ball_ms, "ms");
  Add(out, "wiki.ball_nodes", probe.ball_nodes, "count");
  AddTimings(out, "linking.link_ms", probe.link_ms, "ms");
  AddTimings(out, "expansion.expand_ms", probe.expand_ms, "ms");
  AddTimings(out, "expansion.self_ms", probe.expand_self_ms, "ms");
  AddTimings(out, "ir.search_ms", probe.search_ms, "ms");
  AddTimings(out, "serve.submit_us", traced.submit_us, "us");
  AddTimings(out, "serve.cache_get_us", probe.cache_get_us, "us");
  // Queueing has no call to time: read the pool's own histogram.
  const wqe::obs::HistogramSnapshot& queue_wait = traced.queue_wait;
  if (queue_wait.count > 0) {
    Add(out, "serve.queue_wait_ms.p50", queue_wait.Percentile(0.5), "ms");
  }
  if (SamplesBeyond(queue_wait.count, 0.99) >= kMinSamplesBeyond) {
    Add(out, "serve.queue_wait_ms.p99", queue_wait.Percentile(0.99), "ms");
  }
  Add(out, "serve.cache_hits", traced.cache.hits, "count");
  Add(out, "serve.cache_misses", traced.cache.misses, "count");
  Add(out, "serve.cache_stale_drops", traced.cache.stale_drops, "count");

  std::vector<double> open_ms = Field(setups, &SetupTimes::open_ms);
  std::vector<double> load_ms = Field(setups, &SetupTimes::load_ms);
  for (const PublishTimes& p : publishes) {
    open_ms.push_back(p.open_ms);
    load_ms.push_back(p.load_ms);
  }
  Add(out, "snapshot.open_ms.p50", Median(open_ms), "ms");
  Add(out, "snapshot.load_ms.p50", Median(load_ms), "ms");
  Add(out, "snapshot.bytes", static_cast<double>(inputs.snapshot_bytes),
      "bytes");
  if (!publishes.empty()) {
    Add(out, "api.publish_ms.p50",
        Median(Field(publishes, &PublishTimes::publish_ms)), "ms");
  }
  Add(out, "api.build_ms.p50", Median(Field(setups, &SetupTimes::build_ms)),
      "ms");
  Add(out, "ir.index_s.p50", Median(Field(setups, &SetupTimes::index_s)), "s");

  ReportWallClock(untraced, out);
  Add(out, "trace.overhead_ms",
      Median(traced.ok_latencies()) - Median(untraced.ok_latencies()), "ms");
  Add(out, "trace.unattributed_share",
      UnattributedShare(untraced, traced, probe), "ratio");
}

}  // namespace

std::string Outcome::ToJson() const {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) continue;
    char value[32];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    json += (first ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  return json + "}}";
}

wqe::Result<Outcome> RunBenchmark(const RunOptions& options) {
  std::filesystem::create_directories(options.work_dir);
  const std::string snapshot_path =
      options.work_dir + "/kb-" + std::to_string(::getpid()) + ".snap";
  struct RemoveAtExit {
    std::string path;
    ~RemoveAtExit() { std::filesystem::remove(path); }
  } remove_snapshot{snapshot_path};
  const SpanLog::Clock::time_point started = SpanLog::Clock::now();
  WQE_ASSIGN_OR_RETURN(const Inputs inputs,
                       MakeInputs(options.seed, options.sizes, snapshot_path));
  std::cerr << "servebench: inputs in "
            << Millis(started, SpanLog::Clock::now()) / 1e3 << " s ("
            << inputs.documents.size() << " documents, "
            << inputs.snapshot_bytes << " snapshot bytes)\n";
  // Input generation leaves freed heap behind; return it before the peak
  // RSS mark is reset.
  malloc_trim(0);
  ResetPeakRss();

  const Workload workload = options.workload;
  const uint32_t num_topics = static_cast<uint32_t>(inputs.keywords.size());
  const std::vector<uint32_t> distinct =
      RequestStream(workload, options.seed, num_topics).distinct();
  const std::vector<uint32_t> warm_topics =
      workload == Workload::kColdMiss ? std::vector<uint32_t>() : distinct;

  ResponseChecker checker(inputs.keywords);
  SpanLog spans;
  SpanLog* trace = options.trace ? &spans : nullptr;
  std::vector<SetupTimes> setups(kSetups);
  std::unique_ptr<Stack> stack;
  for (SetupTimes& times : setups) {
    stack.reset();
    WQE_ASSIGN_OR_RETURN(stack, Stack::SetUp(inputs, warm_topics, &checker,
                                             &times, trace));
    std::cerr << "servebench: set-up " << times.total_s << " s (open "
              << times.open_ms << " ms, load " << times.load_ms
              << " ms, build " << times.build_ms << " ms, index "
              << times.index_s << " s, warm-up " << times.warm_ms << " ms)\n";
  }

  Outcome out;
  auto account = [&](const StreamResult& stream) {
    out.attempted += stream.topics.size() + stream.publishes.size() +
                     stream.publishes_failed;
    out.failed += stream.requests_failed + stream.publishes_failed;
    std::cerr << "servebench: " << stream.topics.size() << " requests ("
              << stream.requests_failed << " failed) and "
              << stream.publishes.size() << " publishes in " << stream.wall_s
              << " s\n";
  };
  std::vector<PublishTimes> publishes;
  auto publish_idle = [&] {
    for (size_t i = 0; i < kIdlePublishes; ++i) {
      ++out.attempted;
      wqe::Result<PublishTimes> times =
          Republish(stack->engine(), inputs.snapshot_path, trace);
      if (times.ok()) {
        publishes.push_back(*times);
      } else {
        ++out.failed;
        std::cerr << "servebench: publish failed: "
                  << times.status().ToString() << "\n";
      }
    }
  };

  StreamConfig config = WorkloadConfig(workload, num_topics);
  if (!options.trace) {
    config.seconds = options.seconds;
    config.min_requests = kMinTimedRequests;
    RequestStream stream(workload, options.seed, num_topics);
    const StreamResult result =
        RunStream(*stack, stream, inputs, checker, config, nullptr);
    account(result);
    publishes = result.publishes;
    if (workload != Workload::kRepublish) publish_idle();
    ReportEndToEnd(result, publishes, setups, &out);
  } else {
    config.max_requests = TracedRequests(workload, num_topics);
    RequestStream untraced_stream(workload, options.seed, num_topics);
    const StreamResult untraced = RunStream(*stack, untraced_stream, inputs,
                                            checker, config, nullptr);
    RequestStream traced_stream(workload, options.seed, num_topics);
    const StreamResult traced =
        RunStream(*stack, traced_stream, inputs, checker, config, trace);
    WQE_CHECK(untraced.topics == traced.topics);
    account(untraced);
    account(traced);
    publishes = untraced.publishes;
    publishes.insert(publishes.end(), traced.publishes.begin(),
                     traced.publishes.end());
    if (workload != Workload::kRepublish) publish_idle();
    WQE_ASSIGN_OR_RETURN(
        const ProbeResult probe,
        ProbeLayers(stack->engine(), inputs, distinct, traced,
                    options.min_layer_samples, trace));
    ReportLayers(inputs, untraced, traced, probe, publishes, setups, &out);

    const std::string trace_path = options.work_dir + "/trace-" +
                                   WorkloadName(workload) + ".jsonl";
    if (wqe::Status written = spans.WriteJsonLines(trace_path);
        !written.ok()) {
      std::cerr << "servebench: " << written.ToString() << "\n";
    }
  }

  const size_t reference_mismatches = checker.CheckAgainstEngine(
      stack->engine(), options.seed, kReferenceSample);
  if (checker.mismatches() + reference_mismatches > 0) {
    std::cerr << "servebench: " << checker.mismatches()
              << " responses differ from their reference and "
              << reference_mismatches
              << " from a sequential Engine::Query\n";
  }
  out.correct = checker.mismatches() == 0 && reference_mismatches == 0;
  return out;
}

}  // namespace servebench
