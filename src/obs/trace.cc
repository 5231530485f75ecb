#include "obs/trace.h"

#include <atomic>
#include <utility>

#include "common/hash.h"
#include "obs/metrics.h"

namespace wqe::obs {

TraceLog::TraceLog(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  // Appends up to capacity never reallocate (and so never spike an
  // append's critical section).
  ring_.reserve(capacity_);
}

void TraceLog::Append(SpanRecord record) {
  common::MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[next_] = std::move(record);
    next_ = (next_ + 1) % capacity_;
  }
}

std::vector<SpanRecord> TraceLog::Snapshot() const {
  common::MutexLock lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  // Once the ring wrapped, next_ points at the oldest record.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

void TraceLog::Clear() {
  common::MutexLock lock(mu_);
  ring_.clear();
  next_ = 0;
}

uint64_t NewTraceId() {
  static std::atomic<uint64_t> next{0};
  // MixHash is bijective and maps only 0 to 0, so ids from a counter
  // starting at 1 are nonzero, unique, and deterministic per run.
  return MixHash(next.fetch_add(1, std::memory_order_relaxed) + 1);
}

uint64_t NewSpanId() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

namespace {

std::atomic<uint32_t> g_sample_every{8};

/// The root-only sampling decision (children inherit their parent's).
bool SampleRoot() {
  const uint32_t n = g_sample_every.load(std::memory_order_relaxed);
  if (n <= 1) return n == 1;
  static std::atomic<uint32_t> roots{0};
  return roots.fetch_add(1, std::memory_order_relaxed) % n == 0;
}

}  // namespace

void SetTraceSampleEvery(uint32_t n) {
  g_sample_every.store(n, std::memory_order_relaxed);
}

uint32_t GetTraceSampleEvery() {
  return g_sample_every.load(std::memory_order_relaxed);
}

double MillisSinceProcessStart(std::chrono::steady_clock::time_point tp) {
  static const std::chrono::steady_clock::time_point anchor =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(tp - anchor).count();
}

Span::Span(const char* stage, Histogram* latency)
    : stage_(stage), latency_(latency) {
  if (!Enabled()) return;
  active_ = true;
  parent_ = common::CurrentTraceContext();
  if (parent_.active()) {
    ctx_.trace_id = parent_.trace_id;
    ctx_.sampled = parent_.sampled;
  } else {
    ctx_.trace_id = NewTraceId();
    ctx_.sampled = SampleRoot();
  }
  ctx_.span_id = NewSpanId();
  common::ExchangeCurrentTraceContext(ctx_);
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!active_) return;
  const auto end = std::chrono::steady_clock::now();
  const double duration_ms =
      std::chrono::duration<double, std::milli>(end - start_).count();
  common::ExchangeCurrentTraceContext(parent_);
  if (latency_ != nullptr) latency_->Record(duration_ms);
  if (!ctx_.sampled) return;
  SpanRecord record;
  record.trace_id = ctx_.trace_id;
  record.span_id = ctx_.span_id;
  record.parent_span_id = parent_.span_id;
  record.stage = stage_;
  record.start_ms = MillisSinceProcessStart(start_);
  record.duration_ms = duration_ms;
  MetricsRegistry::Global().trace_log().Append(std::move(record));
}

}  // namespace wqe::obs
