#pragma once

/// \file thread_pool.h
/// \brief Fixed-size worker pool with task futures and graceful shutdown.
///
/// The unit of concurrency: `serve::Server` fans requests across one of
/// these, and `analysis::QueryGraphAnalyzer::AnalyzeAll` fans topics.
/// Deliberately minimal — a mutex-guarded FIFO and `std::packaged_task`
/// futures — because the tasks it runs (entity linking + cycle
/// enumeration + retrieval) are milliseconds-long, so queue contention
/// is noise.  Work-stealing deques and similar machinery (cf. the Galois
/// runtime this subsystem is modeled after) only pay off for microsecond
/// tasks.

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"

namespace wqe::serve {

/// \brief Fixed-size thread pool.  Thread-safe: any thread may Submit.
class ThreadPool {
 public:
  /// \brief Starts `num_threads` workers; 0 means one per hardware thread
  /// (at least one).
  explicit ThreadPool(size_t num_threads = 0);

  /// \brief Graceful: drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueues `fn` and returns a future for its result.  Submitting
  /// after `Shutdown` is a programming error (checked).
  ///
  /// Tasks must not block on futures of tasks queued behind them (the
  /// classic pool self-deadlock); the serving layer never does — workers
  /// run leaf work only.
  ///
  /// Observability: the submitter's `common::TraceContext` is captured
  /// here and re-installed for the task's duration, so spans opened
  /// inside the task parent under the submitting request; the
  /// enqueue→dequeue gap is recorded as a `queue-wait` span and into the
  /// `wqe.serve.queue_wait_ms` histogram (see Enqueue).  The submitter's
  /// `common::ExecContext` (deadline + cancel token) is propagated the
  /// same way, so cooperative checks inside the task see the budget of
  /// the request that submitted it.
  template <typename F>
  auto Submit(F&& fn) WQE_EXCLUDES(mu_)
      -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // shared_ptr because std::function requires copyable callables and
    // packaged_task is move-only.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task] { (*task)(); });
    return future;
  }

  /// \brief Stops accepting tasks, finishes everything already queued, and
  /// joins the workers.  Idempotent and safe to call concurrently: every
  /// caller returns only after the drain completes.  Called by the
  /// destructor.  Must not be called from one of this pool's own workers
  /// (a worker joining itself deadlocks; checked in debug builds).
  void Shutdown() WQE_EXCLUDES(shutdown_mu_, mu_);

  /// \brief Configured worker count (immutable — safe to read while
  /// another thread shuts the pool down).
  size_t num_threads() const { return num_threads_; }

  /// \brief Tasks completed so far (monotonic).
  size_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

  /// \brief Tasks currently queued (diagnostic; racy by nature).
  size_t queue_depth() const WQE_EXCLUDES(mu_);

  /// \brief The pool whose worker is executing the calling thread, or
  /// nullptr when the caller is not a pool worker.  Thread-local, O(1).
  ///
  /// This is the nested-parallelism guard: a task that wants to fan
  /// sub-work across a pool must not block on sub-tasks queued behind it
  /// (the classic pool self-deadlock).  `EffectiveParallelism` consults
  /// this, so a fan-out requested from a worker runs sequentially.
  static ThreadPool* CurrentWorkerPool();

  /// \brief True when the calling thread is one of *this* pool's workers.
  bool OnWorkerThread() const { return CurrentWorkerPool() == this; }

 private:
  /// Type-erased submit: wraps `fn` with trace-context propagation and
  /// queue-wait accounting, then queues it.  Out of line so the
  /// template stays free of observability plumbing.
  void Enqueue(std::function<void()> fn) WQE_EXCLUDES(mu_);

  void WorkerLoop() WQE_EXCLUDES(mu_);

  mutable common::Mutex mu_;
  common::CondVar cv_;
  std::deque<std::function<void()>> queue_ WQE_GUARDED_BY(mu_);
  /// Owned by construction and by Shutdown; never touched by workers.
  /// Guarded by shutdown_mu_, which serializes whole shutdowns —
  /// shutdown_mu_ is always taken before mu_ (Shutdown nests them in
  /// that order; no other path holds both).
  std::vector<std::thread> workers_ WQE_GUARDED_BY(shutdown_mu_);
  size_t num_threads_ = 0;
  common::Mutex shutdown_mu_;
  bool shutdown_ WQE_GUARDED_BY(mu_) = false;
  std::atomic<size_t> tasks_executed_{0};
};

/// \name Degrade-aware fan-out helpers
/// The nested-parallelism policy of the one fan-out below the request
/// level, `analysis::QueryGraphAnalyzer::AnalyzeAll`'s topic fan-out: a
/// pool worker never fans out again.
/// @{

/// \brief Resolves a `num_threads` knob to the count of threads a
/// fan-out may actually use: 1 stays sequential, 0 means auto (the
/// pool's workers + the caller when `pool` is set, otherwise one per
/// hardware thread), and *any* request degrades to 1 when the calling
/// thread is already a pool worker — nested fan-out would deadlock a
/// bounded pool (and must not spawn a transient pool per task either).
uint32_t EffectiveParallelism(uint32_t num_threads, const ThreadPool* pool);

/// \brief Runs `worker` on the calling thread plus `extra` concurrent
/// copies — on `pool` when given, else on a transient pool torn down
/// before returning — and joins them all.  `worker` must be safe to run
/// `extra + 1` times concurrently (the usual shape: an atomic-cursor
/// steal loop over shared chunks).  Callers must have sized `extra`
/// from `EffectiveParallelism`, which guarantees the calling thread is
/// not a worker of `pool` (checked in debug builds) so blocking on the
/// join cannot deadlock the pool.
void RunParallel(ThreadPool* pool, size_t extra,
                 const std::function<void()>& worker);

/// @}

}  // namespace wqe::serve
