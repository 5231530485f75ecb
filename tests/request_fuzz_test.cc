/// \file request_fuzz_test.cc
/// \brief Seeded request fuzz at the serving boundary.
///
/// Sends a few thousand random `api::QueryRequest`s through both
/// `api::Engine::Query` and a 2-worker `serve::Server::Submit`: random
/// keyword bytes (sometimes followed by a topic's keywords, so the
/// expanders do real work), strategy names that are built-ins, aliases,
/// unknown or empty, extreme override values, extreme `top_k` values and
/// deadline values that never fire.  Every outcome must be a `Status`
/// (an abort or UB fails the run, which the asan lane makes loud), and
/// the engine and the server must agree: the same status code, and for
/// an OK request the same documents and expansion titles.  The seed is
/// fixed, so a failure reproduces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/testbed.h"
#include "common/rng.h"
#include "serve/server.h"

namespace wqe::api {
namespace {

constexpr size_t kRequests = 3000;
/// Requests in flight on the server at once.
constexpr size_t kWindow = 16;

const Testbed& Bed() {
  static const Testbed* kBed = [] {
    TestbedOptions options;
    options.wiki.num_domains = 8;
    options.track.num_topics = 5;
    options.track.background_docs = 100;
    auto result = Testbed::Build(options);
    EXPECT_TRUE(result.ok()) << result.status();
    return result->release();
  }();
  return *kBed;
}

/// Picks one of `values`.
template <typename T>
T Pick(Rng& rng, const std::vector<T>& values) {
  return values[rng.Uniform(static_cast<uint32_t>(values.size()))];
}

/// Sets `field` to an extreme value about one time in four.
template <typename T>
void MaybeSet(Rng& rng, std::optional<T>* field, const std::vector<T>& values) {
  if (rng.Bernoulli(0.25)) *field = Pick(rng, values);
}

QueryRequest RandomRequest(Rng& rng, const Testbed& bed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<size_t> sizes = {0, 1, std::numeric_limits<size_t>::max()};
  const std::vector<uint32_t> u32s = {0, 1,
                                      std::numeric_limits<uint32_t>::max()};
  const std::vector<double> doubles = {0.0,   1.0,  -1.0, 1e308,
                                       -1e308, kInf, kNaN};
  const std::vector<bool> bools = {false, true};

  QueryRequest request;
  const uint32_t length = rng.Uniform(12);
  for (uint32_t i = 0; i < length; ++i) {
    request.keywords.push_back(static_cast<char>(rng.Uniform(256)));
  }
  if (rng.Bernoulli(0.5)) {
    request.keywords += " ";
    const auto topic = rng.Uniform(static_cast<uint32_t>(bed.num_topics()));
    request.keywords += bed.topic(topic).keywords;
  }
  request.expander = Pick<std::string>(
      rng, {"cycle", "direct-link", "community", "no-expansion", "adjacency",
            "category", "", "", "warp-drive", "Cycle"});

  ExpanderOverrides& o = request.overrides;
  MaybeSet(rng, &o.max_features, sizes);
  MaybeSet(rng, &o.neighborhood_radius, u32s);
  MaybeSet(rng, &o.max_neighborhood, sizes);
  MaybeSet(rng, &o.prioritize_mutual, bools);
  MaybeSet(rng, &o.min_cycle_length, u32s);
  MaybeSet(rng, &o.max_cycle_length, u32s);
  MaybeSet(rng, &o.min_density, doubles);
  MaybeSet(rng, &o.min_category_ratio, doubles);
  MaybeSet(rng, &o.max_category_ratio, doubles);
  MaybeSet(rng, &o.two_cycle_weight, doubles);
  MaybeSet(rng, &o.length_decay, doubles);
  MaybeSet(rng, &o.sqrt_count_damping, bools);
  MaybeSet(rng, &o.max_cycles, sizes);
  MaybeSet(rng, &o.include_redirect_aliases, bools);

  request.top_k = Pick<size_t>(
      rng, {0, 1, 15, 1000, std::numeric_limits<size_t>::max()});
  // Budgets that never fire, so the engine and the server see the same
  // outcome: none (0, negative, NaN) or one too large to expire.
  request.deadline_ms = Pick<double>(rng, {0.0, 0.0, -1.0, kNaN, 1e308, kInf});
  return request;
}

std::string Describe(const QueryRequest& request) {
  std::string out = "expander='" + request.expander + "' top_k=" +
                    std::to_string(request.top_k) + " keywords=";
  for (unsigned char c : request.keywords) {
    out += std::to_string(c);
    out += ',';
  }
  return out;
}

TEST(RequestFuzzTest, EngineAndServerAgreeOnEveryRandomRequest) {
  const Testbed& bed = Bed();
  const Engine& engine = bed.engine();
  serve::ServerOptions options;
  options.num_threads = 2;
  serve::Server server(engine, options);

  Rng rng(/*seed=*/20231019);
  std::vector<QueryRequest> requests;
  requests.reserve(kRequests);
  for (size_t i = 0; i < kRequests; ++i) {
    requests.push_back(RandomRequest(rng, bed));
  }

  size_t ok = 0;
  size_t mismatches = 0;
  for (size_t begin = 0; begin < requests.size(); begin += kWindow) {
    const size_t end = std::min(begin + kWindow, requests.size());
    std::vector<std::future<Result<QueryResponse>>> served;
    for (size_t i = begin; i < end; ++i) {
      served.push_back(server.Submit(requests[i]));
    }
    for (size_t i = begin; i < end; ++i) {
      Result<QueryResponse> direct = engine.Query(requests[i]);
      Result<QueryResponse> via_server = served[i - begin].get();
      const bool same =
          direct.status().code() == via_server.status().code() &&
          (!direct.ok() ||
           (direct->docs == via_server->docs &&
            direct->expansion.titles == via_server->expansion.titles));
      if (!same && ++mismatches <= 5) {
        ADD_FAILURE() << "request " << i << " (" << Describe(requests[i])
                      << "): engine " << direct.status() << ", server "
                      << via_server.status();
      }
      if (direct.ok()) {
        ++ok;
        EXPECT_LE(direct->docs.size(), requests[i].top_k == 0
                                           ? engine.options().default_top_k
                                           : requests[i].top_k);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // The mix must exercise both outcomes: requests that serve and
  // requests the boundary rejects.
  EXPECT_GT(ok, kRequests / 20);
  EXPECT_LT(ok, kRequests);
  EXPECT_EQ(server.stats().requests, kRequests);
}

}  // namespace
}  // namespace wqe::api
