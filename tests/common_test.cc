/// \file common_test.cc
/// \brief Unit tests for the common substrate: Status/Result, RNG,
/// string utilities, statistics, table printing, annotated mutexes,
/// deadlines/cancellation, and the deterministic fault injector.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "serve/thread_pool.h"

namespace wqe {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorFactoriesSetCodeAndMessage) {
  Status st = Status::InvalidArgument("bad value: ", 42);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad value: 42");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad value: 42");
}

TEST(StatusTest, AllCodesRoundTripThroughToString) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsDeadlineExceeded());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
}

TEST(StatusTest, LifecycleCodesToString) {
  EXPECT_EQ(Status::DeadlineExceeded("late").ToString(),
            "Deadline exceeded: late");
  EXPECT_EQ(Status::ResourceExhausted("full").ToString(),
            "Resource exhausted: full");
}

TEST(StatusTest, WithContextAppendsDetail) {
  Status st = Status::NotFound("article");
  Status ctx = st.WithContext("while linking");
  EXPECT_TRUE(ctx.IsNotFound());
  EXPECT_EQ(ctx.message(), "article; while linking");
  EXPECT_TRUE(Status::OK().WithContext("ignored").ok());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_NE(Status::NotFound("x"), Status::NotFound("y"));
  EXPECT_NE(Status::NotFound("x"), Status::Internal("x"));
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, MoveOnlyValueWorks) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  WQE_ASSIGN_OR_RETURN(int h, Half(x));
  WQE_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_TRUE(Quarter(6).status().IsInvalidArgument());
  EXPECT_TRUE(Quarter(7).status().IsInvalidArgument());
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU32() == b.NextU32()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (uint32_t bound : {1u, 2u, 3u, 10u, 1000u}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Uniform(bound), bound);
    }
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

TEST(RngTest, ZipfFavorsSmallRanks) {
  Rng rng(11);
  size_t first_two = 0;
  const int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    uint32_t v = rng.Zipf(100, 1.2);
    EXPECT_LT(v, 100u);
    if (v < 2) ++first_two;
  }
  // Ranks 0 and 1 should receive far more than the uniform share (2%).
  EXPECT_GT(first_two, kDraws / 10);
}

TEST(RngTest, ZipfMatchesRankFrequencyLaw) {
  // Chi-square goodness of fit of the rejection-inversion sampler against
  // the exact law p(k) ∝ 1/k^s, across exponents including the s = 1
  // logarithmic branch.  (The seed sampler inverted its acceptance test
  // and put ~99% of the mass on rank 0 at s = 1; under this test its
  // chi-square statistic is in the millions.)
  const int kDraws = 60000;
  for (double s : {0.7, 1.0, 1.3}) {
    for (uint32_t n : {5u, 40u}) {
      Rng rng(1000 + static_cast<uint64_t>(s * 10) + n);
      std::vector<uint32_t> counts(n, 0);
      for (int i = 0; i < kDraws; ++i) {
        uint32_t v = rng.Zipf(n, s);
        ASSERT_LT(v, n);
        ++counts[v];
      }
      double hz = 0.0;
      for (uint32_t k = 1; k <= n; ++k) hz += std::pow(k, -s);
      double chi2 = 0.0;
      for (uint32_t k = 1; k <= n; ++k) {
        double expected = kDraws * std::pow(k, -s) / hz;
        double diff = static_cast<double>(counts[k - 1]) - expected;
        chi2 += diff * diff / expected;
      }
      // 99.9th percentile of chi-square with df = n-1 is ~18.5 (df 4) and
      // ~69.3 (df 39); 100 leaves slack without hiding an inverted law.
      EXPECT_LT(chi2, 100.0) << "s=" << s << " n=" << n;
      // Monotone non-increasing head: rank 0 must dominate rank 2.
      EXPECT_GT(counts[0], counts[2]);
    }
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) {
    double g = rng.Gaussian(10.0, 2.0);
    sum += g;
    sq += g * g;
  }
  double mean = sum / kDraws;
  double var = sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.2);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.2);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(17);
  std::vector<uint32_t> sample = rng.SampleWithoutReplacement(50, 20);
  std::set<uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (uint32_t v : sample) EXPECT_LT(v, 50u);
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
  EXPECT_EQ(rng.SampleWithoutReplacement(5, 5).size(), 5u);
}

TEST(RngTest, WeightedChoiceRespectsWeights) {
  Rng rng(19);
  std::vector<double> weights = {0.0, 9.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 2000; ++i) {
    ++counts[rng.WeightedChoice(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 4);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(23);
  Rng child1 = parent.Fork(1);
  Rng parent2(23);
  Rng child2 = parent2.Fork(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(child1.NextU64(), child2.NextU64());
  }
}

// ----------------------------------------------------------- string_util

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("Hello World 42"), "hello world 42");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\nab\r "), "ab");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  a \t b\n\nc ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Category:", "category:"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

// ------------------------------------------------------------------ hash

uint64_t Xxh64Of(std::string_view bytes) {
  return Xxh64(bytes.data(), bytes.size());
}

TEST(HashTest, HashBytesIsFnv1a64) {
  // Version-1 section checksums and every header checksum are this
  // function, so its values must never move: FNV-1a 64 reference vectors.
  EXPECT_EQ(HashBytes("", 0), 14695981039346656037ULL);
  EXPECT_EQ(HashBytes("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(HashBytes("foobar", 6), 0x85944171f73967e8ULL);
  EXPECT_NE(HashBytes("hello", 5), HashBytes("hellp", 5));
}

TEST(HashTest, Xxh64MatchesReferenceVectors) {
  // Seed-0 digests from the reference xxHash library (0.8.1).
  EXPECT_EQ(Xxh64Of(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(Xxh64Of("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(Xxh64Of("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(Xxh64Of("message digest"), 0x066ed728fceeb3beULL);
  EXPECT_EQ(Xxh64Of("abcdefghijklmnopqrstuvwxyz"), 0xcfe1f278fa89835cULL);
  std::string digits;
  for (int i = 0; i < 8; ++i) digits += "1234567890";
  EXPECT_EQ(Xxh64Of(digits), 0xe04a477f19ee145dULL);
  EXPECT_EQ(Xxh64(nullptr, 0), 0xef46db3751d8e999ULL);
  EXPECT_NE(Xxh64("abc", 3, /*seed=*/1), Xxh64Of("abc"));
}

// Lengths 0-300 cross the 32-byte stripe and the 8-, 4- and 1-byte tail
// boundaries: every single-bit flip must change the hash, and the same
// bytes must hash the same at every alignment.
std::vector<unsigned char> SeededBytes(size_t size) {
  std::vector<unsigned char> bytes(size);
  Rng rng(2024);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.NextU32());
  return bytes;
}

TEST(HashTest, Xxh64SeesEverySingleBitFlip) {
  std::vector<unsigned char> bytes = SeededBytes(300);
  size_t flips = 0;
  for (size_t size = 0; size <= bytes.size(); ++size) {
    const uint64_t base = Xxh64(bytes.data(), size);
    for (size_t bit = 0; bit < size * 8; ++bit) {
      bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
      if (Xxh64(bytes.data(), size) == base) {
        ADD_FAILURE() << "flip of bit " << bit << " at length " << size;
      }
      bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
      ++flips;
    }
  }
  EXPECT_EQ(flips, 361200u);
}

TEST(HashTest, Xxh64IgnoresAlignment) {
  const std::vector<unsigned char> bytes = SeededBytes(300);
  std::vector<unsigned char> shifted(bytes.size() + 8);
  for (size_t offset = 1; offset < 8; ++offset) {
    std::copy(bytes.begin(), bytes.end(), shifted.begin() + offset);
    for (size_t size = 0; size <= bytes.size(); ++size) {
      ASSERT_EQ(Xxh64(shifted.data() + offset, size),
                Xxh64(bytes.data(), size))
          << "offset " << offset << ", length " << size;
    }
  }
}

TEST(StringUtilTest, NormalizeTitle) {
  EXPECT_EQ(NormalizeTitle("  Grand   Canal "), "grand canal");
  EXPECT_EQ(NormalizeTitle("Bridge_of_Sighs"), "bridge of sighs");
  EXPECT_EQ(NormalizeTitle("VENICE"), "venice");
  EXPECT_EQ(NormalizeTitle(""), "");
  EXPECT_EQ(NormalizeTitle("___"), "");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.5, 3), "0.500");
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
}

// ----------------------------------------------------------------- stats

TEST(StatsTest, SummarizeKnownQuartiles) {
  // R-7 quartiles of 1..5 are exactly 2, 3, 4.
  FiveNumberSummary s = Summarize({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.q1, 2);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.q3, 4);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_EQ(s.n, 5u);
}

TEST(StatsTest, SummarizeEmptyAndSingle) {
  FiveNumberSummary empty = Summarize({});
  EXPECT_EQ(empty.n, 0u);
  FiveNumberSummary one = Summarize({3.5});
  EXPECT_DOUBLE_EQ(one.median, 3.5);
  EXPECT_DOUBLE_EQ(one.min, 3.5);
  EXPECT_DOUBLE_EQ(one.max, 3.5);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> sorted = {0, 10};
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 0.25), 2.5);
}

TEST(StatsTest, Mean) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(StatsTest, PearsonCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(StatsTest, FitLineRecoversSlope) {
  LinearFit fit = FitLine({0, 1, 2, 3}, {1, 3, 5, 7});
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(StatsTest, FitLineDegenerateX) {
  LinearFit fit = FitLine({2, 2, 2}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

// ---------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter t("demo");
  t.SetHeader({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  std::string rendered = t.Render();
  EXPECT_NE(rendered.find("== demo =="), std::string::npos);
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, CsvEscapesSpecials) {
  TablePrinter t("csv");
  t.SetHeader({"a", "b"});
  t.AddRow({"x,y", "he said \"hi\""});
  std::string csv = t.RenderCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TablePrinterTest, DoubleRowFormatting) {
  TablePrinter t("doubles");
  t.SetHeader({"label", "v1", "v2"});
  t.AddRow("row", {0.12345, 2.0}, 2);
  EXPECT_NE(t.Render().find("0.12"), std::string::npos);
  EXPECT_NE(t.Render().find("2.00"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Annotated mutex primitives (common/mutex.h)
// ---------------------------------------------------------------------------

using common::CondVar;
using common::Mutex;
using common::MutexLock;

TEST(MutexTest, MutualExclusionAcrossThreads) {
  Mutex mu;
  int counter = 0;  // guarded by mu (annotation elided: local variable)
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu;
  // try_lock on a mutex the calling thread already holds is UB, so probe
  // from a second thread.
  auto probe = [&mu] {
    bool acquired = false;
    std::thread t([&] {
      acquired = mu.TryLock();
      if (acquired) mu.Unlock();
    });
    t.join();
    return acquired;
  };
  mu.Lock();
  EXPECT_FALSE(probe());
  mu.Unlock();
  EXPECT_TRUE(probe());
}

TEST(CondVarTest, WaitWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  int observed = -1;
  std::thread consumer([&] {
    MutexLock lock(mu);
    // Open-coded wait loop: the annotated CondVar deliberately has no
    // predicate overload (see common/mutex.h).
    while (!ready) cv.Wait(mu);
    observed = 42;
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();
  consumer.join();
  EXPECT_EQ(observed, 42);
}

TEST(CondVarTest, NotifyAllReleasesEveryWaiter) {
  Mutex mu;
  CondVar cv;
  bool go = false;
  int woken = 0;
  constexpr int kWaiters = 4;
  std::vector<std::thread> threads;
  threads.reserve(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    threads.emplace_back([&] {
      MutexLock lock(mu);
      while (!go) cv.Wait(mu);
      ++woken;
    });
  }
  {
    MutexLock lock(mu);
    go = true;
  }
  cv.NotifyAll();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(woken, kWaiters);
}

// ---------------------------------------------- Deadline / cancellation

TEST(DeadlineTest, DefaultIsInfinite) {
  common::Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_ms()));
}

TEST(DeadlineTest, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(common::Deadline::AfterMillis(0.0).expired());
  EXPECT_TRUE(common::Deadline::AfterMillis(-5.0).expired());
}

TEST(DeadlineTest, GenerousBudgetIsNotExpired) {
  common::Deadline d = common::Deadline::AfterMillis(60'000.0);
  EXPECT_FALSE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 0.0);
}

TEST(DeadlineTest, TightenPicksTheEarlier) {
  common::Deadline infinite;
  common::Deadline soon = common::Deadline::AfterMillis(1.0);
  common::Deadline later = common::Deadline::AfterMillis(60'000.0);
  EXPECT_FALSE(common::Deadline::Tighten(infinite, soon).is_infinite());
  EXPECT_LT(common::Deadline::Tighten(soon, later).remaining_ms(), 1'000.0);
  EXPECT_TRUE(common::Deadline::Tighten(infinite, infinite).is_infinite());
}

TEST(AmbientDeadlineTest, DefaultIsInfiniteAndChecksPass) {
  EXPECT_TRUE(common::CurrentDeadline().is_infinite());
  EXPECT_FALSE(common::CurrentDeadline().expired());
  EXPECT_TRUE(common::ExecStatus().ok());
}

TEST(AmbientDeadlineTest, ScopedInstallAndRestore) {
  {
    common::ScopedDeadline scope(common::Deadline::AfterMillis(60'000.0));
    EXPECT_FALSE(common::CurrentDeadline().is_infinite());
    EXPECT_FALSE(common::CurrentDeadline().expired());
  }
  EXPECT_TRUE(common::CurrentDeadline().is_infinite());
}

TEST(AmbientDeadlineTest, ExpiredDeadlineSurfacesAsDeadlineExceeded) {
  common::ScopedDeadline scope(common::Deadline::AfterMillis(0.0));
  EXPECT_TRUE(common::CurrentDeadline().expired());
  EXPECT_TRUE(common::ExecStatus().IsDeadlineExceeded());
}

TEST(AmbientDeadlineTest, RequestDeadlineKeepsTheTighterOne) {
  // No budget of its own (0, negative or NaN): the ambient deadline.
  for (double none : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_TRUE(common::RequestDeadline(none).is_infinite()) << none;
  }
  EXPECT_FALSE(common::RequestDeadline(60'000.0).is_infinite());
  // A request cannot loosen the ambient deadline it was issued under.
  common::ScopedDeadline scope(common::Deadline::AfterMillis(0.0));
  EXPECT_TRUE(common::RequestDeadline(60'000.0).expired());
  EXPECT_TRUE(common::RequestDeadline(0.0).expired());
}

TEST(AmbientDeadlineTest, PropagatesAcrossPoolSubmit) {
  common::ScopedDeadline scope(common::Deadline::AfterMillis(0.0));
  serve::ThreadPool pool(1);
  // The worker thread has no deadline of its own; Submit must carry the
  // submitter's budget across the hop.
  EXPECT_TRUE(
      pool.Submit([] { return common::ExecStatus().IsDeadlineExceeded(); })
          .get());
}

// ---------------------------------------------------- Fault injection

TEST(FaultInjectorTest, DisabledInjectorIsTransparent) {
  common::FaultInjector& injector = common::FaultInjector::Global();
  injector.Disable();
  EXPECT_FALSE(injector.enabled());
  EXPECT_TRUE(injector.Evaluate("common_test.site").ok());
  auto probed = []() -> Status {
    WQE_FAULT_POINT("common_test.site");
    return Status::OK();
  };
  EXPECT_TRUE(probed().ok());
}

TEST(FaultInjectorTest, CertainFailureInjectsConfiguredCode) {
  common::FaultInjector& injector = common::FaultInjector::Global();
  common::FaultSpec spec;
  spec.fail_probability = 1.0;
  spec.fail_code = StatusCode::kIOError;
  injector.Configure(/*seed=*/7, {{"common_test.site", spec}});
  auto probed = []() -> Status {
    WQE_FAULT_POINT("common_test.site");
    return Status::OK();
  };
  Status st = probed();
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("common_test.site"), std::string::npos);
  EXPECT_EQ(injector.injected_failures(), 1u);
  // Unlisted sites are unaffected even while enabled.
  EXPECT_TRUE(injector.Evaluate("common_test.other_site").ok());
  injector.Disable();
  EXPECT_TRUE(probed().ok());
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  common::FaultInjector& injector = common::FaultInjector::Global();
  common::FaultSpec spec;
  spec.fail_probability = 0.4;
  auto draw_schedule = [&](uint64_t seed) {
    injector.Configure(seed, {{"common_test.sched", spec}});
    std::vector<bool> outcomes;
    outcomes.reserve(64);
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(injector.Evaluate("common_test.sched").ok());
    }
    return outcomes;
  };
  std::vector<bool> first = draw_schedule(123);
  std::vector<bool> second = draw_schedule(123);
  std::vector<bool> other = draw_schedule(321);
  injector.Disable();
  EXPECT_EQ(first, second);
  EXPECT_NE(first, other);  // overwhelmingly likely across 64 draws
  // A 0.4-probability site injects *some* failures and *some* passes.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST(FaultInjectorTest, DelayOnlySiteSleepsWithoutFailing) {
  common::FaultInjector& injector = common::FaultInjector::Global();
  common::FaultSpec spec;
  spec.delay_probability = 1.0;
  spec.delay_ms = 5.0;
  injector.Configure(/*seed=*/1, {{"common_test.delay", spec}});
  const auto start = std::chrono::steady_clock::now();
  injector.MaybeDelay("common_test.delay");
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_GE(injector.injected_delays(), 1u);
  EXPECT_GE(elapsed_ms, 4.0);  // sleep_for may round, allow slack down
  injector.Disable();
}

}  // namespace
}  // namespace wqe
