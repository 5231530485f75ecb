/// \file misc_test.cc
/// \brief Coverage for paths the main suites leave thin: the optimizer's
/// SWAP move, logging levels, the stopwatch, and expander edge cases.

#include <gtest/gtest.h>

#include <thread>

#include "api/testbed.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "expansion/baselines.h"
#include "expansion/cycle_expander.h"
#include "groundtruth/ground_truth.h"

namespace wqe {
namespace {

const api::Testbed& TinyTestbed() {
  static const api::Testbed* kBed = [] {
    api::TestbedOptions options;
    options.wiki.num_domains = 8;
    options.track.num_topics = 3;
    options.track.background_docs = 60;
    auto result = api::Testbed::Build(options);
    EXPECT_TRUE(result.ok()) << result.status();
    return result->release();
  }();
  return *kBed;
}

TEST(XqOptimizerSwapTest, SwapEnabledNeverWorseThanDisabled) {
  const api::Testbed& bed = TinyTestbed();
  groundtruth::XqOptimizerOptions no_swap;
  no_swap.enable_swap = false;
  no_swap.restarts = 1;
  groundtruth::XqOptimizerOptions with_swap;
  with_swap.enable_swap = true;
  with_swap.restarts = 1;

  for (size_t t = 0; t < bed.num_topics(); ++t) {
    groundtruth::GroundTruthBuilder b1(&bed, no_swap), b2(&bed, with_swap);
    auto e1 = b1.BuildEntry(t);
    auto e2 = b2.BuildEntry(t);
    ASSERT_TRUE(e1.ok());
    ASSERT_TRUE(e2.ok());
    // SWAP only adds moves, so with identical restarts/seed it cannot end
    // strictly worse.
    EXPECT_GE(e2->xq.quality, e1->xq.quality - 1e-9) << "topic " << t;
  }
}

TEST(XqOptimizerSwapTest, MoreRestartsNeverWorse) {
  const api::Testbed& bed = TinyTestbed();
  groundtruth::XqOptimizerOptions one;
  one.restarts = 1;
  one.enable_swap = false;
  groundtruth::XqOptimizerOptions three;
  three.restarts = 3;
  three.enable_swap = false;
  groundtruth::GroundTruthBuilder b1(&bed, one), b3(&bed, three);
  auto e1 = b1.BuildEntry(0);
  auto e3 = b3.BuildEntry(0);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e3.ok());
  EXPECT_GE(e3->xq.quality, e1->xq.quality - 1e-9);
}

TEST(LoggingTest, ThresholdSuppressesBelowLevel) {
  LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Statements below the threshold are cheap no-ops; above flush to
  // stderr.  We can only assert the level round-trips and nothing crashes.
  WQE_LOG(Debug) << "suppressed";
  WQE_LOG(Info) << "suppressed";
  WQE_LOG(Error) << "visible (expected in test output)";
  SetLogLevel(saved);
  EXPECT_EQ(GetLogLevel(), saved);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double first = watch.ElapsedMillis();
  EXPECT_GE(first, 15.0);
  EXPECT_GE(watch.ElapsedSeconds(), 0.015);
  watch.Reset();
  EXPECT_LT(watch.ElapsedMillis(), first);
}

TEST(CycleExpanderEdgeTest, SingleQueryArticleStillExpands) {
  const api::Testbed& bed = TinyTestbed();
  expansion::CycleExpander system(bed.kb(), bed.linker());
  // A bare hub title links to exactly one article.
  const auto& hub_title =
      bed.kb().display_title(bed.topic(0).query_articles[0]);
  auto expanded = system.Expand(hub_title);
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(expanded->query_articles.size(), 1u);
  EXPECT_FALSE(expanded->feature_articles.empty());
}

TEST(CycleExpanderEdgeTest, TinyNeighborhoodCapStillWorks) {
  const api::Testbed& bed = TinyTestbed();
  expansion::CycleExpanderOptions options;
  options.max_neighborhood = 5;  // barely more than the query itself
  expansion::CycleExpander system(bed.kb(), bed.linker(), options);
  auto expanded = system.Expand(bed.topic(0).keywords);
  ASSERT_TRUE(expanded.ok());  // may find few/no features, must not fail
}

TEST(CycleExpanderEdgeTest, MaxCyclesCapRespected) {
  const api::Testbed& bed = TinyTestbed();
  expansion::CycleExpanderOptions options;
  options.max_cycles = 3;
  expansion::CycleExpander system(bed.kb(), bed.linker(), options);
  auto expanded = system.Expand(bed.topic(0).keywords);
  ASSERT_TRUE(expanded.ok());
  EXPECT_LE(expanded->feature_articles.size(), options.max_features);
}

TEST(CommunityEdgeTest, EmptyNeighborhoodYieldsNoFeatures) {
  const api::Testbed& bed = TinyTestbed();
  expansion::CommunityOptions options;
  options.max_neighborhood = 1;
  expansion::CommunityExpansion system(bed.kb(), bed.linker(), options);
  auto expanded = system.Expand(bed.topic(0).keywords);
  ASSERT_TRUE(expanded.ok());
  EXPECT_TRUE(expanded->feature_articles.empty());
}

}  // namespace
}  // namespace wqe
