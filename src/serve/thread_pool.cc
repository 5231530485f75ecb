#include "serve/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wqe::serve {

namespace {
/// Set for the lifetime of WorkerLoop; never cleared mid-run, so a task
/// can always identify the pool it is running on.
thread_local ThreadPool* t_current_pool = nullptr;

/// Process-wide queue-wait latency across all pools.  Resolved once; the
/// global registry's instruments live for the process, so the static
/// pointer never dangles.
obs::Histogram* QueueWaitHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("wqe.serve.queue_wait_ms");
  return histogram;
}

/// Records the enqueue→dequeue gap: always into the histogram, and — when
/// the submitter had a trace in scope — as that trace's own `queue-wait`
/// span (a sibling of the spans the task itself opens).
void RecordQueueWait(std::chrono::steady_clock::time_point enqueued,
                     const common::TraceContext& ctx) {
  const auto now = std::chrono::steady_clock::now();
  const double wait_ms =
      std::chrono::duration<double, std::milli>(now - enqueued).count();
  QueueWaitHistogram()->Record(wait_ms);
  if (ctx.active() && ctx.sampled) {
    obs::SpanRecord record;
    record.trace_id = ctx.trace_id;
    record.span_id = obs::NewSpanId();
    record.parent_span_id = ctx.span_id;
    record.stage = "queue-wait";
    record.start_ms = obs::MillisSinceProcessStart(enqueued);
    record.duration_ms = wait_ms;
    obs::MetricsRegistry::Global().trace_log().Append(std::move(record));
  }
}
}  // namespace

bool ThreadPool::OnWorkerThread() const { return t_current_pool == this; }

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads_ = num_threads;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Enqueue(std::function<void()> fn) {
  // Capture the submitter's trace context so spans opened inside the task
  // parent under the submitting request, and timestamp the enqueue so the
  // dequeue side can account the queue wait.  The submitter's deadline
  // is captured unconditionally — a request's deadline must bind its
  // pool-side work even with observability off.
  const bool timed = obs::Enabled();
  const common::TraceContext ctx =
      timed ? common::CurrentTraceContext() : common::TraceContext{};
  const common::Deadline deadline = common::CurrentDeadline();
  const auto enqueued = timed ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
  {
    common::MutexLock lock(mu_);
    WQE_CHECK(!shutdown_);
    queue_.push_back([fn = std::move(fn), ctx, deadline, enqueued, timed] {
      obs::ScopedTraceContext scope(ctx);
      common::ScopedDeadline deadline_scope(deadline);
      if (timed) RecordQueueWait(enqueued, ctx);
      WQE_FAULT_DELAY("serve.pool_dispatch");
      fn();
    });
  }
  cv_.NotifyOne();
}

void ThreadPool::Shutdown() {
  // A worker joining its own pool can never return (it would wait on
  // itself); the drain must be driven from outside the pool.
  WQE_DCHECK(!OnWorkerThread());
  // Serialize whole shutdowns (not just the flag flip): a second caller
  // blocks here until the first finishes joining, so concurrent Shutdown
  // calls can never double-join the same workers, and every caller
  // returns only once the pool is fully drained.
  common::MutexLock shutdown_lock(shutdown_mu_);
  {
    common::MutexLock lock(mu_);
    if (shutdown_ && workers_.empty()) return;  // already shut down
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

size_t ThreadPool::queue_depth() const {
  common::MutexLock lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  t_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      common::MutexLock lock(mu_);
      // Open-coded wait loop (no predicate lambda) so the analysis can
      // see the guarded reads happen under mu_.
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace wqe::serve
