// Tests of the benchmark itself: its percentile rule, the seeded inputs
// and streams, the output check, and the repeatability of its counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "checker.h"
#include "common/rng.h"
#include "common/stats.h"
#include "inputs.h"
#include "stats.h"

namespace servebench {
namespace {

constexpr Workload kWorkloads[] = {Workload::kColdMiss, Workload::kHotHits,
                                   Workload::kRepublish};

/// A small KB and track: seconds per run instead of minutes.
constexpr InputSizes kSmall{/*domains=*/8, /*topics=*/12};

std::vector<double> ShuffledRamp(size_t n, uint64_t seed) {
  std::vector<double> samples(n);
  for (size_t i = 0; i < n; ++i) samples[i] = static_cast<double>(i);
  wqe::Rng rng(seed);
  rng.Shuffle(&samples);
  return samples;
}

/// A directory for one test under the working directory (the build tree when
/// run through ctest).
std::string TempDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::current_path() / ("servebench_test_" + name);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(StatsTest, PercentilesMatchASortedReference) {
  for (size_t n : {1000u, 1001u, 4096u}) {
    std::vector<double> samples = ShuffledRamp(n, n);
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.5, 0.9, 0.99}) {
      std::optional<double> got = TailPercentile(samples, p);
      ASSERT_TRUE(got.has_value()) << "n=" << n << " p=" << p;
      // On the ramp 0..n-1 the interpolated p quantile is p * (n - 1).
      EXPECT_NEAR(*got, p * static_cast<double>(n - 1), 1e-9);
      EXPECT_DOUBLE_EQ(*got, wqe::PercentileSorted(sorted, p));
    }
    EXPECT_NEAR(Median(samples), 0.5 * static_cast<double>(n - 1), 1e-9);
  }
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(StatsTest, APercentileNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9u);
  EXPECT_FALSE(TailPercentile(ShuffledRamp(999, 1), 0.99).has_value());
  EXPECT_TRUE(TailPercentile(ShuffledRamp(1000, 1), 0.99).has_value());
  EXPECT_FALSE(TailPercentile(ShuffledRamp(99, 1), 0.9).has_value());
  EXPECT_TRUE(TailPercentile(ShuffledRamp(100, 1), 0.9).has_value());
  EXPECT_FALSE(TailPercentile({}, 0.99).has_value());
}

TEST(StreamTest, RepeatsForASeedAndChangesWithIt) {
  for (Workload workload : kWorkloads) {
    RequestStream a(workload, 7, 300);
    RequestStream b(workload, 7, 300);
    RequestStream c(workload, 8, 300);
    std::vector<uint32_t> from_a, from_b, from_c;
    for (int i = 0; i < 5000; ++i) {
      from_a.push_back(a.Next());
      from_b.push_back(b.Next());
      from_c.push_back(c.Next());
    }
    EXPECT_EQ(from_a, from_b) << WorkloadName(workload);
    EXPECT_NE(from_a, from_c) << WorkloadName(workload);
    EXPECT_EQ(a.distinct(), b.distinct());
  }
}

TEST(StreamTest, ColdPassesSendEveryTopicOnceInANewOrder) {
  RequestStream stream(Workload::kColdMiss, 3, 300);
  std::vector<std::vector<uint32_t>> passes(3);
  for (std::vector<uint32_t>& pass : passes) {
    for (int i = 0; i < 300; ++i) pass.push_back(stream.Next());
  }
  for (std::vector<uint32_t> pass : passes) {
    std::sort(pass.begin(), pass.end());
    EXPECT_EQ(pass, stream.distinct());
  }
  EXPECT_NE(passes[0], passes[1]);
}

TEST(StreamTest, HotStreamsStayInAZipfHotSet) {
  RequestStream stream(Workload::kHotHits, 3, 300);
  ASSERT_EQ(stream.distinct().size(), kHotSetSize);
  std::map<uint32_t, int> counts;
  for (int i = 0; i < 64000; ++i) ++counts[stream.Next()];
  for (const auto& [topic, count] : counts) {
    EXPECT_TRUE(std::binary_search(stream.distinct().begin(),
                                   stream.distinct().end(), topic));
  }
  // Zipf with s = 1 over 64 ranks: the top rank takes 1/H(64), about 21%.
  int top = 0;
  for (const auto& [topic, count] : counts) top = std::max(top, count);
  EXPECT_NEAR(top / 64000.0, 0.21, 0.02);
}

TEST(InputsTest, KnowledgeBaseTrackAndSnapshotRepeatForASeed) {
  const std::string dir = TempDir("inputs");
  wqe::Result<Inputs> a = MakeInputs(5, kSmall, dir + "/a.snap");
  wqe::Result<Inputs> b = MakeInputs(5, kSmall, dir + "/b.snap");
  wqe::Result<Inputs> c = MakeInputs(6, kSmall, dir + "/c.snap");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->keywords, b->keywords);
  ASSERT_EQ(a->documents.size(), b->documents.size());
  for (size_t i = 0; i < a->documents.size(); ++i) {
    EXPECT_EQ(a->documents[i].name, b->documents[i].name);
    EXPECT_EQ(a->documents[i].xml, b->documents[i].xml);
  }
  EXPECT_GT(a->snapshot_bytes, 0u);
  EXPECT_EQ(ReadFile(dir + "/a.snap"), ReadFile(dir + "/b.snap"));
  EXPECT_NE(ReadFile(dir + "/a.snap"), ReadFile(dir + "/c.snap"));
  std::filesystem::remove_all(dir);
}

TEST(CheckerTest, RejectsACorruptedResponse) {
  const std::vector<std::string> keywords = {"venice canal", "sheep",
                                             "venice canal"};
  ResponseChecker checker(keywords);
  wqe::api::QueryResponse response;
  response.docs = {{1, 2.5}, {7, 1.25}};
  response.expansion.titles = {"Venice", "Grand Canal"};
  EXPECT_TRUE(checker.Check(0, response));
  EXPECT_TRUE(checker.Check(0, response));
  EXPECT_TRUE(checker.Check(2, response));  // same keyword string

  wqe::api::QueryResponse score = response;
  score.docs[1].score = 1.2500001;
  EXPECT_FALSE(checker.Check(2, score));
  wqe::api::QueryResponse order = response;
  std::swap(order.docs[0], order.docs[1]);
  EXPECT_FALSE(checker.Check(0, order));
  wqe::api::QueryResponse title = response;
  title.expansion.titles.pop_back();
  EXPECT_FALSE(checker.Check(0, title));
  EXPECT_EQ(checker.mismatches(), 3u);

  EXPECT_TRUE(checker.Check(1, title));  // its own reference
  EXPECT_EQ(checker.mismatches(), 3u);
}

/// The metrics a run reports as counts.
std::map<std::string, double> Counts(const Outcome& outcome) {
  std::map<std::string, double> counts;
  for (const Metric& metric : outcome.metrics) {
    if (metric.unit == "count" || metric.unit == "bytes") {
      counts[metric.name] = metric.value;
    }
  }
  return counts;
}

TEST(BenchTest, TracedCountsRepeatForASeed) {
  for (Workload workload : kWorkloads) {
    RunOptions options;
    options.workload = workload;
    options.seed = 3;
    options.trace = true;
    options.work_dir = TempDir(WorkloadName(workload));
    options.sizes = kSmall;
    options.min_layer_samples = 50;
    wqe::Result<Outcome> first = RunBenchmark(options);
    wqe::Result<Outcome> second = RunBenchmark(options);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    for (const Outcome* outcome : {&*first, &*second}) {
      EXPECT_TRUE(outcome->correct) << WorkloadName(workload);
      EXPECT_EQ(outcome->failed, 0u);
      EXPECT_GT(outcome->attempted, 0u);
    }
    std::map<std::string, double> a = Counts(*first);
    std::map<std::string, double> b = Counts(*second);
    EXPECT_GT(a.at("graph.cycles_visited"), 0);
    EXPECT_GE(a.at("graph.cycles_visited"), a.at("graph.cycles_accepted"));
    if (workload == Workload::kRepublish) {
      // After a publish, requests in flight for one key can all miss, so
      // hits and misses depend on scheduling; stale drops do not.
      for (const char* racy : {"serve.cache_hits", "serve.cache_misses"}) {
        a.erase(racy);
        b.erase(racy);
      }
      EXPECT_GT(a.at("serve.cache_stale_drops"), 0);
    }
    EXPECT_EQ(a, b) << WorkloadName(workload);
    std::filesystem::remove_all(options.work_dir);
  }
}

}  // namespace
}  // namespace servebench
