#pragma once

/// \file deadline.h
/// \brief Deadlines, cooperative cancellation, and the thread-local
/// execution context that carries them.
///
/// Mirrors the layering of `common/trace.h`: the minimal request-budget
/// state — (deadline, cancel token) — lives at the bottom of the tree so
/// the graph kernels can poll it without depending on the serving layer
/// above them.  `serve::ThreadPool` captures the caller's `ExecContext`
/// at submit time and reinstalls it inside the task (exactly as it does
/// for `TraceContext`), so budgets follow requests across pool hops: a
/// request's deadline reaches the DFS on whichever worker serves it.
///
/// Cooperative checks are deliberately cheap: when no deadline is set and
/// no cancel token is attached, `ExecInterrupted()` is a thread-local
/// load plus two predictable branches — no clock read, no atomics.

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>

#include "common/status.h"

namespace wqe::common {

/// \brief A point in time after which a request's work should stop.
///
/// Default-constructed deadlines are infinite (never expire) and cost
/// nothing to check.  Deadlines are values: copying one shares the same
/// instant, and the tighter of two deadlines wins under `Tighten`.
class Deadline {
 public:
  /// Infinite: never expires.
  Deadline() = default;

  /// \brief A deadline `ms` milliseconds from now ("now" on the steady
  /// clock, so wall-clock adjustments can't fire or starve it).  A
  /// non-positive `ms` yields an already-expired deadline.
  static Deadline AfterMillis(double ms);

  /// \brief The tighter (earlier) of the two deadlines.
  static Deadline Tighten(const Deadline& a, const Deadline& b) {
    return a.when_ < b.when_ ? a : b;
  }

  bool is_infinite() const {
    return when_ == std::chrono::steady_clock::time_point::max();
  }

  /// \brief True iff the deadline has passed.  Infinite deadlines never
  /// expire (and skip the clock read).
  bool expired() const {
    return !is_infinite() && std::chrono::steady_clock::now() >= when_;
  }

  /// \brief Milliseconds until expiry: negative once expired, +infinity
  /// for an infinite deadline.
  double remaining_ms() const;

 private:
  std::chrono::steady_clock::time_point when_ =
      std::chrono::steady_clock::time_point::max();
};

class CancelSource;

/// \brief A read-only view of a cancellation flag.
///
/// Default-constructed tokens are null: `valid()` is false and they can
/// never report cancellation.  Real tokens come from a `CancelSource` and
/// share its flag; copying a token is a shared_ptr copy.
class CancelToken {
 public:
  CancelToken() = default;

  /// \brief True iff this token is attached to a `CancelSource`.
  bool valid() const { return flag_ != nullptr; }

  /// \brief True iff the owning source has requested cancellation.
  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// \brief The writable end of a cancellation flag.
///
/// The caller that owns the request keeps the source and hands tokens to
/// the work; `RequestCancel()` is sticky (there is no un-cancel) and safe
/// to call from any thread, including concurrently with token reads.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void RequestCancel() { flag_->store(true, std::memory_order_relaxed); }

  bool cancel_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }

  CancelToken token() const { return CancelToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// \brief The ambient execution budget of the calling thread: how long
/// the current request may keep running, and whether its caller has
/// asked it to stop.
struct ExecContext {
  Deadline deadline;
  CancelToken cancel;

  /// \brief True iff there is anything to check (finite deadline or an
  /// attached cancel token).  The inactive fast path is branch-only.
  bool active() const { return !deadline.is_infinite() || cancel.valid(); }

  /// \brief Combines an inherited (ambient) context with a per-request
  /// one: the tighter deadline wins, and the request's cancel token
  /// takes precedence when it has one.
  static ExecContext Merge(const ExecContext& ambient,
                           const ExecContext& request) {
    ExecContext out;
    out.deadline = Deadline::Tighten(ambient.deadline, request.deadline);
    out.cancel = request.cancel.valid() ? request.cancel : ambient.cancel;
    return out;
  }
};

/// \brief The calling thread's current execution context (infinite /
/// no-token when none has been installed).
const ExecContext& CurrentExecContext();

/// \brief Installs `ctx` as the calling thread's context and returns the
/// previous one.  Callers restore the returned value when their scope
/// ends (`ScopedExecContext` does this via RAII).
ExecContext ExchangeCurrentExecContext(ExecContext ctx);

/// \brief RAII installer for an `ExecContext`, restoring the previous
/// context on destruction.  Mirrors `obs::ScopedTraceContext`.
class ScopedExecContext {
 public:
  explicit ScopedExecContext(ExecContext ctx)
      : previous_(ExchangeCurrentExecContext(std::move(ctx))) {}
  ~ScopedExecContext() { ExchangeCurrentExecContext(std::move(previous_)); }

  ScopedExecContext(const ScopedExecContext&) = delete;
  ScopedExecContext& operator=(const ScopedExecContext&) = delete;

 private:
  ExecContext previous_;
};

/// \brief True iff the ambient context wants the current work to stop
/// (cancel requested, or deadline expired).  This is the cooperative
/// check the long-running kernels poll; the no-context fast path does
/// not touch the clock.
bool ExecInterrupted();

/// \brief OK while the ambient context allows work to continue;
/// `Status::Cancelled` / `Status::DeadlineExceeded` otherwise.  Cancel
/// wins over deadline when both fired (the caller explicitly asked).
Status ExecStatus();

}  // namespace wqe::common
