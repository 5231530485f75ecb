#pragma once

/// \file client.h
/// \brief The serving stack under test, and the closed-loop client that
/// drives it.
///
/// One client thread keeps K requests outstanding on one `serve::Server`
/// with `kServerWorkers` workers, so at most three threads are busy on a
/// 4-vCPU host.  The client takes each reply as soon as it sees it ready
/// and sends the next request in its place, so K stays outstanding while
/// a slow request (a refill after a publish) is in flight.  A request's
/// latency runs from just before `Submit` until the client sees its reply
/// ready: at once with K = 1, otherwise within `kPollSlice` (50 µs).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "checker.h"
#include "common/result.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "trace.h"

namespace servebench {

inline constexpr size_t kServerWorkers = 2;

/// \brief Where set-up time goes.
struct SetupTimes {
  double open_ms = 0.0;    ///< snapshot::Reader::Open
  double load_ms = 0.0;    ///< snapshot::Reader::Load
  double build_ms = 0.0;   ///< api::Engine::Build
  double index_s = 0.0;    ///< parse + AddDocument per document, FinalizeIndex
  double warm_ms = 0.0;    ///< Server construction and warm-up requests
  double total_s = 0.0;
};

/// \brief The program as a deployment runs it: an engine over the loaded
/// snapshot with the track indexed, behind one `serve::Server`.
class Stack {
 public:
  /// \brief Program start-up on the generated inputs.  The warm-up sends
  /// each of `warm_topics` once and waits for all of them; their
  /// responses go through `checker`.  Records a `setup` span with one
  /// child per step when `spans` is set.
  static wqe::Result<std::unique_ptr<Stack>> SetUp(
      const Inputs& inputs, const std::vector<uint32_t>& warm_topics,
      ResponseChecker* checker, SetupTimes* times, SpanLog* spans);

  wqe::api::Engine& engine() { return *engine_; }
  wqe::serve::Server& server() { return *server_; }

  /// \brief Replaces the server with a fresh one whose cache is empty.
  void ResetServer();

 private:
  Stack() = default;

  std::unique_ptr<wqe::api::Engine> engine_;
  std::unique_ptr<wqe::serve::Server> server_;  ///< borrows engine_
};

/// \brief Where one republish's time goes.
struct PublishTimes {
  double open_ms = 0.0;     ///< snapshot::Reader::Open
  double load_ms = 0.0;     ///< snapshot::Reader::Load
  double publish_ms = 0.0;  ///< api::Engine::PublishSnapshot
  double total_ms() const { return open_ms + load_ms + publish_ms; }
};

/// \brief Reloads the snapshot file and publishes it as the engine's next
/// epoch; records a `publish` span with three children when `spans` is set.
wqe::Result<PublishTimes> Republish(wqe::api::Engine& engine,
                                    const std::string& snapshot_path,
                                    SpanLog* spans);

/// \brief One measured stream.  Send boundaries are counted in requests
/// sent, so where publishes and fresh servers fall is a function of the
/// seed alone.
struct StreamConfig {
  size_t window = 1;  ///< K, the requests kept outstanding
  /// Before the first request and every this-many-th one after it, drain
  /// and replace the server by one with an empty cache (0 = never).
  size_t fresh_server_every = 0;
  /// Before every this-many-th request, drain, then reload and publish
  /// the snapshot (0 = never).
  size_t publish_every = 0;
  /// Stop sending after this long but not before `min_requests` were
  /// sent, or, when `max_requests` is set, after that many; then drain.
  double seconds = 0.0;
  size_t min_requests = 0;
  size_t max_requests = 0;
};

/// \brief What one stream observed.  Per-request vectors are in send
/// order.
struct StreamResult {
  std::vector<uint32_t> topics;
  std::vector<double> latency_ms;  ///< NaN for a failed request
  std::vector<double> submit_us;   ///< time inside Server::Submit (traced)
  std::vector<uint64_t> root_span;  ///< the request's root span (traced)
  std::vector<size_t> publish_at;  ///< requests sent before each publish
  std::vector<size_t> reset_at;    ///< requests sent before each reset
  std::vector<PublishTimes> publishes;
  size_t requests_failed = 0;
  size_t publishes_failed = 0;
  double wall_s = 0.0;
  /// CPU time the whole process used during the stream (all threads).
  double cpu_s = 0.0;
  /// Cache hits, misses and stale drops summed over every server the
  /// stream used.
  wqe::serve::ExpansionCacheStats cache;
  /// The stream's share of the pool's `wqe.serve.queue_wait_ms` histogram.
  wqe::obs::HistogramSnapshot queue_wait;

  /// Latencies of the successful requests.
  std::vector<double> ok_latencies() const;
};

/// \brief Runs one closed-loop stream of `stream`'s requests against
/// `stack`, checking every response with `checker`.  With `spans` set,
/// records a root span per request and a child around `Submit`.
StreamResult RunStream(Stack& stack, RequestStream& stream,
                       const Inputs& inputs, ResponseChecker& checker,
                       const StreamConfig& config, SpanLog* spans);

/// \brief The query a topic sends.
wqe::api::QueryRequest MakeRequest(const Inputs& inputs, uint32_t topic);

}  // namespace servebench
