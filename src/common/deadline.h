#pragma once

/// \file deadline.h
/// \brief Deadlines and the thread-local ambient deadline that carries a
/// request's budget.
///
/// Mirrors the layering of `common/trace.h`: the request budget — one
/// `Deadline` — lives at the bottom of the tree so the graph kernels can
/// poll it without depending on the serving layer above them.
/// `serve::ThreadPool` captures the caller's ambient deadline at submit
/// time and reinstalls it inside the task (exactly as it does for
/// `TraceContext`), so budgets follow requests across pool hops: a
/// request's deadline reaches the DFS on whichever worker serves it.
///
/// Cooperative checks are deliberately cheap: with no deadline installed,
/// `CurrentDeadline().expired()` is a thread-local load plus one
/// predictable branch — no clock read.

#include <chrono>

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

/// \brief The calling thread's ambient deadline (infinite when none has
/// been installed).
const Deadline& CurrentDeadline();

/// \brief Installs `deadline` as the calling thread's ambient deadline and
/// returns the previous one.  Callers restore the returned value when
/// their scope ends (`ScopedDeadline` does this via RAII).
Deadline ExchangeCurrentDeadline(Deadline deadline);

/// \brief RAII installer for an ambient `Deadline`, restoring the
/// previous one on destruction.  Mirrors `obs::ScopedTraceContext`.
class ScopedDeadline {
 public:
  explicit ScopedDeadline(Deadline deadline)
      : previous_(ExchangeCurrentDeadline(deadline)) {}
  ~ScopedDeadline() { ExchangeCurrentDeadline(previous_); }

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  Deadline previous_;
};

/// \brief The deadline one request runs under: `budget_ms` from now when
/// positive (0 means the request brings no budget), tightened by the
/// caller's ambient deadline, so a request can never loosen the budget
/// it was issued under.  `api::Engine` and `serve::Server` both build
/// their requests' deadlines here.
Deadline RequestDeadline(double budget_ms);

/// \brief OK while the ambient deadline allows work to continue;
/// `Status::DeadlineExceeded` once it has passed.
Status ExecStatus();

}  // namespace wqe::common
