#include "client.h"

#include <time.h>

#include <chrono>
#include <cmath>
#include <future>
#include <iostream>
#include <limits>
#include <utility>

#include "clef/image_metadata.h"
#include "common/macros.h"
#include "snapshot/reader.h"

namespace servebench {

namespace {

using Clock = SpanLog::Clock;

/// How long the client sleeps on one outstanding reply before it looks at
/// the others again; bounds how late a reply is seen when several are out.
constexpr std::chrono::microseconds kPollSlice{50};

void AddCacheDelta(const wqe::serve::ExpansionCacheStats& after,
                   const wqe::serve::ExpansionCacheStats& before,
                   wqe::serve::ExpansionCacheStats* total) {
  total->hits += after.hits - before.hits;
  total->misses += after.misses - before.misses;
  total->stale_drops += after.stale_drops - before.stale_drops;
}

double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

wqe::obs::Histogram* QueueWaitHistogram() {
  return wqe::obs::MetricsRegistry::Global().GetHistogram(
      "wqe.serve.queue_wait_ms");
}

}  // namespace

wqe::api::QueryRequest MakeRequest(const Inputs& inputs, uint32_t topic) {
  wqe::api::QueryRequest request;
  request.keywords = inputs.keywords[topic];
  return request;
}

wqe::Result<std::unique_ptr<Stack>> Stack::SetUp(
    const Inputs& inputs, const std::vector<uint32_t>& warm_topics,
    ResponseChecker* checker, SetupTimes* times, SpanLog* spans) {
  const Clock::time_point start = Clock::now();
  WQE_ASSIGN_OR_RETURN(wqe::snapshot::Reader reader,
                       wqe::snapshot::Reader::Open(inputs.snapshot_path));
  const Clock::time_point opened = Clock::now();
  WQE_ASSIGN_OR_RETURN(wqe::wiki::KnowledgeBase kb, reader.Load());
  const Clock::time_point loaded = Clock::now();

  std::unique_ptr<Stack> stack(new Stack());
  WQE_ASSIGN_OR_RETURN(stack->engine_, wqe::api::Engine::Build(std::move(kb)));
  const Clock::time_point built = Clock::now();

  for (const wqe::clef::TrackDocument& doc : inputs.documents) {
    WQE_ASSIGN_OR_RETURN(wqe::clef::ImageMetadata meta,
                         wqe::clef::ParseImageMetadata(doc.xml));
    WQE_RETURN_NOT_OK(
        stack->engine_->AddDocument(doc.name, wqe::clef::ExtractLinkedText(meta))
            .status());
  }
  WQE_RETURN_NOT_OK(stack->engine_->FinalizeIndex());
  const Clock::time_point indexed = Clock::now();

  stack->ResetServer();
  std::vector<std::future<wqe::Result<wqe::api::QueryResponse>>> warm;
  warm.reserve(warm_topics.size());
  for (uint32_t topic : warm_topics) {
    warm.push_back(stack->server_->Submit(MakeRequest(inputs, topic)));
  }
  for (size_t i = 0; i < warm.size(); ++i) {
    wqe::Result<wqe::api::QueryResponse> response = warm[i].get();
    WQE_RETURN_NOT_OK(response.status());
    if (checker != nullptr && !checker->Check(warm_topics[i], *response)) {
      return wqe::Status::Internal("warm-up response for topic ",
                                   warm_topics[i], " differs");
    }
  }
  const Clock::time_point warmed = Clock::now();

  times->open_ms = Millis(start, opened);
  times->load_ms = Millis(opened, loaded);
  times->build_ms = Millis(loaded, built);
  times->index_s = Millis(built, indexed) / 1e3;
  times->warm_ms = Millis(indexed, warmed);
  times->total_s = Millis(start, warmed) / 1e3;
  if (spans != nullptr) {
    const uint64_t root = spans->Add("setup", 0, start, warmed);
    spans->Add("snapshot.open", root, start, opened);
    spans->Add("snapshot.load", root, opened, loaded);
    spans->Add("api.build", root, loaded, built);
    spans->Add("ir.index", root, built, indexed);
    spans->Add("serve.warm", root, indexed, warmed);
  }
  return stack;
}

void Stack::ResetServer() {
  server_.reset();  // joins the old workers before the new ones start
  wqe::serve::ServerOptions options;
  options.num_threads = kServerWorkers;
  server_ = std::make_unique<wqe::serve::Server>(*engine_, options);
}

wqe::Result<PublishTimes> Republish(wqe::api::Engine& engine,
                                    const std::string& snapshot_path,
                                    SpanLog* spans) {
  const Clock::time_point start = Clock::now();
  WQE_ASSIGN_OR_RETURN(wqe::snapshot::Reader reader,
                       wqe::snapshot::Reader::Open(snapshot_path));
  const Clock::time_point opened = Clock::now();
  WQE_ASSIGN_OR_RETURN(wqe::wiki::KnowledgeBase kb, reader.Load());
  const Clock::time_point loaded = Clock::now();
  WQE_RETURN_NOT_OK(engine.PublishSnapshot(std::move(kb)));
  const Clock::time_point published = Clock::now();
  if (spans != nullptr) {
    const uint64_t root = spans->Add("publish", 0, start, published);
    spans->Add("snapshot.open", root, start, opened);
    spans->Add("snapshot.load", root, opened, loaded);
    spans->Add("api.publish", root, loaded, published);
  }
  return PublishTimes{Millis(start, opened), Millis(opened, loaded),
                      Millis(loaded, published)};
}

std::vector<double> StreamResult::ok_latencies() const {
  std::vector<double> ok;
  ok.reserve(latency_ms.size());
  for (double ms : latency_ms) {
    if (!std::isnan(ms)) ok.push_back(ms);
  }
  return ok;
}

StreamResult RunStream(Stack& stack, RequestStream& stream,
                       const Inputs& inputs, ResponseChecker& checker,
                       const StreamConfig& config, SpanLog* spans) {
  WQE_CHECK(config.window >= 1);
  WQE_CHECK(config.max_requests > 0 || config.seconds > 0.0);
  struct Pending {
    size_t index;  ///< position in send order
    Clock::time_point sent;
    Clock::time_point submitted;
    std::future<wqe::Result<wqe::api::QueryResponse>> future;
  };
  StreamResult result;
  std::vector<Pending> window;
  window.reserve(config.window);
  wqe::serve::ExpansionCacheStats cache_before = stack.server().cache()->stats();
  const wqe::obs::HistogramSnapshot queue_before =
      QueueWaitHistogram()->snapshot();

  // Takes the reply in `slot`, which is ready as of `done`.
  auto complete = [&](size_t slot, Clock::time_point done) {
    Pending pending = std::move(window[slot]);
    window[slot] = std::move(window.back());
    window.pop_back();
    const uint32_t topic = result.topics[pending.index];
    wqe::Result<wqe::api::QueryResponse> response = pending.future.get();
    if (!response.ok()) {
      if (result.requests_failed++ == 0) {
        std::cerr << "servebench: request for topic " << topic
                  << " failed: " << response.status().ToString() << "\n";
      }
    } else {
      result.latency_ms[pending.index] = Millis(pending.sent, done);
      if (!checker.Check(topic, *response)) {
        std::cerr << "servebench: response for topic " << topic
                  << " differs from its reference\n";
      }
    }
    if (spans != nullptr) {
      const uint64_t root = spans->Add("request", 0, pending.sent, done);
      spans->Add("serve.submit", root, pending.sent, pending.submitted);
      result.root_span[pending.index] = root;
    }
  };
  // Takes every ready reply; when none is ready, sleeps on one of them
  // (at most kPollSlice while others are out) and looks again.
  auto collect_some = [&] {
    while (true) {
      bool took = false;
      for (size_t slot = 0; slot < window.size();) {
        if (window[slot].future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          complete(slot, Clock::now());
          took = true;
        } else {
          ++slot;
        }
      }
      if (took || window.empty()) return;
      if (window.size() == 1) {
        window.front().future.wait();
      } else {
        window.front().future.wait_for(kPollSlice);
      }
    }
  };
  auto drain = [&] {
    while (!window.empty()) collect_some();
  };

  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop_at =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  size_t sent = 0;
  while (config.max_requests > 0
             ? sent < config.max_requests
             : sent < config.min_requests || Clock::now() < stop_at) {
    if (config.fresh_server_every > 0 &&
        sent % config.fresh_server_every == 0) {
      drain();
      AddCacheDelta(stack.server().cache()->stats(), cache_before,
                    &result.cache);
      stack.ResetServer();
      cache_before = stack.server().cache()->stats();
      result.reset_at.push_back(sent);
    }
    if (sent > 0 && config.publish_every > 0 &&
        sent % config.publish_every == 0) {
      drain();
      result.publish_at.push_back(sent);
      wqe::Result<PublishTimes> times =
          Republish(stack.engine(), inputs.snapshot_path, spans);
      if (times.ok()) {
        result.publishes.push_back(*times);
      } else if (result.publishes_failed++ == 0) {
        std::cerr << "servebench: publish failed: "
                  << times.status().ToString() << "\n";
      }
    }
    if (window.size() == config.window) collect_some();
    const uint32_t topic = stream.Next();
    result.topics.push_back(topic);
    result.latency_ms.push_back(std::numeric_limits<double>::quiet_NaN());
    Pending pending{sent, Clock::now(), {}, {}};
    pending.future = stack.server().Submit(MakeRequest(inputs, topic));
    pending.submitted = Clock::now();
    if (spans != nullptr) {
      result.submit_us.push_back(Millis(pending.sent, pending.submitted) * 1e3);
      result.root_span.push_back(0);
    }
    window.push_back(std::move(pending));
    ++sent;
  }
  drain();
  result.wall_s = Millis(start, Clock::now()) / 1e3;
  result.cpu_s = ProcessCpuSeconds() - cpu_start;
  AddCacheDelta(stack.server().cache()->stats(), cache_before, &result.cache);
  result.queue_wait = QueueWaitHistogram()->snapshot().DeltaSince(queue_before);
  return result;
}

}  // namespace servebench
