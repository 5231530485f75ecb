#include "common/deadline.h"

#include <cmath>
#include <limits>

namespace wqe::common {

namespace {

thread_local Deadline g_deadline;

}  // namespace

Deadline Deadline::AfterMillis(double ms) {
  Deadline d;
  const auto now = std::chrono::steady_clock::now();
  if (ms <= 0.0) {
    d.when_ = now;
    return d;
  }
  // Saturate absurd budgets (and NaN) at infinite instead of overflowing
  // the duration arithmetic.
  const double max_ms = 1e15;
  if (!(ms < max_ms)) return d;
  d.when_ = now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(ms));
  return d;
}

double Deadline::remaining_ms() const {
  if (is_infinite()) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double, std::milli>(
             when_ - std::chrono::steady_clock::now())
      .count();
}

const Deadline& CurrentDeadline() { return g_deadline; }

Deadline ExchangeCurrentDeadline(Deadline deadline) {
  const Deadline previous = g_deadline;
  g_deadline = deadline;
  return previous;
}

Deadline RequestDeadline(double budget_ms) {
  if (!(budget_ms > 0.0)) return g_deadline;  // NaN brings no budget
  return Deadline::Tighten(g_deadline, Deadline::AfterMillis(budget_ms));
}

Status ExecStatus() {
  if (g_deadline.expired()) {
    return Status::DeadlineExceeded("request deadline exceeded");
  }
  return Status::OK();
}

}  // namespace wqe::common
