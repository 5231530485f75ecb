/// \file chaos_test.cc
/// \brief Deterministic fault-injection chaos suite for the serving
/// stack.  Seeded fault schedules (`common::FaultInjector`) drive
/// randomized failures and delays through `serve::Server::Submit` and
/// `QueryBatch` while deadlines and cancellation fire mid-flight.  The
/// invariants checked on every schedule:
///
///  - no deadlock: every future becomes ready within a loose wall-clock
///    bound (the test itself would hang otherwise);
///  - no partial ranking reported as success: every OK response is
///    bit-identical to the sequential no-fault reference;
///  - every failure is attributable: an injected code, or one of the
///    lifecycle codes (DeadlineExceeded / Cancelled / ResourceExhausted);
///  - batches stay fail-atomic: a failing batch yields no responses and
///    names a failing request index;
///  - with injection disabled and no deadlines set, serving output is
///    exactly the sequential engine's (the chaos machinery is inert).
///
/// `ci.sh faults` runs this suite in Debug and again under
/// ThreadSanitizer; the seeds below push well over 200 requests through
/// the server per run.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/testbed.h"
#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/status.h"
#include "serve/server.h"

namespace wqe::serve {
namespace {

const api::Testbed& Bed() {
  static const api::Testbed* kBed = [] {
    api::TestbedOptions options;
    options.wiki.num_domains = 10;
    options.track.num_topics = 5;
    options.track.background_docs = 120;
    auto result = api::Testbed::Build(options);
    EXPECT_TRUE(result.ok()) << result.status();
    return result->release();
  }();
  return *kBed;
}

/// The request mix: keywords cycle through the track topics, strategies
/// alternate, and overrides vary, so every batch mixes several distinct
/// configurations.
std::vector<api::QueryRequest> RequestMix(size_t count) {
  const api::Testbed& bed = Bed();
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

/// Sequential no-fault reference for the mix, computed once.  Requests
/// carry no deadline and no token, so this is the plain engine output.
const std::vector<api::QueryResponse>& Reference(
    const std::vector<api::QueryRequest>& requests) {
  static const std::vector<api::QueryResponse>* kReference = [&requests] {
    auto result = Bed().engine().QueryBatch(requests);
    EXPECT_TRUE(result.ok()) << result.status();
    return new std::vector<api::QueryResponse>(std::move(*result));
  }();
  return *kReference;
}

bool SameRanking(const api::QueryResponse& got, const api::QueryResponse& want) {
  return got.docs == want.docs &&
         got.expansion.titles == want.expansion.titles &&
         got.expansion.feature_articles == want.expansion.feature_articles;
}

/// A failure the chaos run is allowed to surface: one of the injected
/// codes, or a lifecycle outcome of deadlines / cancellation / shedding.
bool AttributableFailure(const Status& status) {
  return status.IsInternal() || status.IsIOError() ||
         status.IsDeadlineExceeded() || status.IsCancelled() ||
         status.IsResourceExhausted();
}

constexpr auto kNoDeadlockBound = std::chrono::seconds(30);

template <typename Response>
Result<Response> MustBecomeReady(std::future<Result<Response>>& future) {
  // A future that never settles is a deadlock; fail loudly instead of
  // letting the test runner time the whole suite out.
  if (future.wait_for(kNoDeadlockBound) != std::future_status::ready) {
    ADD_FAILURE() << "request future not ready after "
                  << kNoDeadlockBound.count() << "s: serving deadlocked";
    return Status::Internal("deadlocked future");
  }
  return future.get();
}

TEST(ChaosTest, SeededFaultSchedulesPreserveServingInvariants) {
  const api::Testbed& bed = Bed();
  const std::vector<api::QueryRequest> mix = RequestMix(12);
  const std::vector<api::QueryResponse>& reference = Reference(mix);
  ASSERT_EQ(reference.size(), mix.size());

  size_t total_requests = 0;
  size_t total_failed = 0;
  for (uint64_t seed : {11u, 23u, 47u, 101u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    common::FaultSpec flaky_lookup;
    flaky_lookup.fail_probability = 0.15;
    flaky_lookup.fail_code = StatusCode::kInternal;
    flaky_lookup.delay_probability = 0.30;
    flaky_lookup.delay_ms = 1.0;
    common::FaultSpec flaky_build;
    flaky_build.fail_probability = 0.15;
    flaky_build.fail_code = StatusCode::kIOError;
    common::FaultSpec flaky_enumeration;
    flaky_enumeration.fail_probability = 0.10;
    flaky_enumeration.fail_code = StatusCode::kInternal;
    flaky_enumeration.delay_probability = 0.20;
    flaky_enumeration.delay_ms = 2.0;
    common::FaultSpec slow_dispatch;
    slow_dispatch.delay_probability = 0.30;
    slow_dispatch.delay_ms = 1.0;
    common::FaultInjector::Global().Configure(
        seed, {{"serve.cache_lookup", flaky_lookup},
               {"serve.expander_construction", flaky_build},
               {"expansion.enumeration", flaky_enumeration},
               {"serve.pool_dispatch", slow_dispatch}});

    ServerOptions options;
    options.num_threads = 3;
    options.default_deadline_ms = 0.0;
    Server server(bed.engine(), options);

    // --- a batch under fire: fail-atomic, or bit-identical throughout.
    auto CheckBatch = [&](const std::vector<api::QueryRequest>& requests) {
      auto batch = server.QueryBatch(requests);
      total_requests += requests.size();
      if (batch.ok()) {
        ASSERT_EQ(batch->size(), requests.size());
        for (size_t i = 0; i < batch->size(); ++i) {
          EXPECT_TRUE(SameRanking((*batch)[i], reference[i]))
              << "batch response " << i << " diverged from reference";
        }
      } else {
        ++total_failed;
        EXPECT_TRUE(AttributableFailure(batch.status())) << batch.status();
        EXPECT_NE(batch.status().message().find("QueryBatch request #"),
                  std::string::npos)
            << batch.status();
      }
    };
    CheckBatch(mix);

    // --- singles under fire, a few with tight deadlines and one
    // cancelled mid-flight.
    common::CancelSource source;
    std::vector<std::future<Result<api::QueryResponse>>> futures;
    std::vector<size_t> indices;
    constexpr size_t kSingles = 36;
    for (size_t i = 0; i < kSingles; ++i) {
      api::QueryRequest request = mix[i % mix.size()];
      if (i % 6 == 5) request.deadline_ms = 3.0;
      if (i == kSingles / 2) request.cancel = source.token();
      indices.push_back(i % mix.size());
      futures.push_back(server.Submit(std::move(request)));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    source.RequestCancel();
    total_requests += kSingles;
    for (size_t i = 0; i < futures.size(); ++i) {
      Result<api::QueryResponse> result =
          MustBecomeReady<api::QueryResponse>(futures[i]);
      if (result.ok()) {
        EXPECT_TRUE(SameRanking(*result, reference[indices[i]]))
            << "single " << i << " diverged from reference";
      } else {
        ++total_failed;
        EXPECT_TRUE(AttributableFailure(result.status())) << result.status();
      }
    }

    CheckBatch(mix);
    common::FaultInjector::Global().Disable();
  }

  // Four seeds x (12 + 36 + 12) = 240 requests through the server.
  EXPECT_GE(total_requests, 200u);
  // The schedules above are hot enough that some injections must land;
  // a zero here means the fault plan silently stopped evaluating.
  EXPECT_GT(total_failed, 0u);
  EXPECT_GT(common::FaultInjector::Global().injected_failures(), 0u);
}

TEST(ChaosTest, DisabledInjectionIsBitIdenticalToSequential) {
  // The inert path: no injection, no deadlines, no tokens.  Parallel
  // serving must reproduce the sequential engine bit-for-bit — the
  // robustness machinery may not perturb a healthy request stream.
  common::FaultInjector::Global().Disable();
  const api::Testbed& bed = Bed();
  const std::vector<api::QueryRequest> mix = RequestMix(12);
  const std::vector<api::QueryResponse>& reference = Reference(mix);

  ServerOptions options;
  options.num_threads = 3;
  Server server(bed.engine(), options);
  auto batch = server.QueryBatch(mix);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), reference.size());
  for (size_t i = 0; i < batch->size(); ++i) {
    EXPECT_TRUE(SameRanking((*batch)[i], reference[i])) << "request " << i;
    EXPECT_EQ((*batch)[i].expansion.query_articles,
              reference[i].expansion.query_articles)
        << "request " << i;
  }
  for (const api::QueryRequest& request : mix) {
    auto single = server.Submit(request).get();
    ASSERT_TRUE(single.ok()) << single.status();
  }
}

}  // namespace
}  // namespace wqe::serve
