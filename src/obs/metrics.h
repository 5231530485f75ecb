#pragma once

/// \file metrics.h
/// \brief Process-wide metrics: named, labeled instruments + exporters.
///
/// The serving stack's visibility layer: the per-stage timings, work
/// volumes (ball nodes, cycles visited and accepted) and SLO records that
/// requests, snapshot loads and publishes report, and that the benches and
/// servebench read back.  Three instrument kinds live in a
/// `MetricsRegistry`:
///
///   - `Counter`   — monotonic, relaxed-atomic `Inc` (wait-free);
///   - `Gauge`     — last-value double, atomic `Set`;
///   - `Histogram` — log-linear buckets (8 linear sub-buckets per power
///     of two, one layout for every histogram: the `kHistogram*`
///     constants), relaxed-atomic bucket increments, p50/p95/p99 derived
///     from a bucket snapshot and cross-checked against the exact
///     `wqe::PercentileSorted` in tests/obs_test.cc (error is bounded by
///     one bucket width, i.e. ~12.5% relative).
///
/// Locking contract: the registry's mutex is taken only at instrument
/// *registration* (`GetCounter`/`GetGauge`/`GetHistogram`, which callers
/// run once at setup and cache the returned pointer) and in the
/// exporters.  Recording through an instrument pointer is lock-free —
/// plain relaxed atomics, no registry participation — so the serve hot
/// path never contends on observability state.  Instrument pointers are
/// stable for the registry's lifetime (the global registry's is the
/// process's: function-local-static instrument handles are sound).
///
/// Kill switch: `obs::SetEnabled(false)` turns histogram recording and
/// span tracing into no-ops at runtime (used by
/// bench/perf_parallel_serving.cc to measure the instrumentation's
/// overhead in one binary).  Counters and gauges stay live — they back
/// the `EngineStats`/`ServerStats`/`ExpansionCacheStats` compatibility
/// accessors, whose counting is part of the API contract (and costs one
/// relaxed fetch_add, same as the structs they replaced).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "obs/trace.h"

namespace wqe::obs {

namespace internal {
inline std::atomic<bool> g_runtime_enabled{true};
}  // namespace internal

/// \brief Runtime master switch for histogram recording and span
/// tracing.  Counters/gauges are unaffected (see the file comment).
inline bool Enabled() {
  return internal::g_runtime_enabled.load(std::memory_order_relaxed);
}
inline void SetEnabled(bool on) {
  internal::g_runtime_enabled.store(on, std::memory_order_relaxed);
}

/// \brief Instrument labels, e.g. `{{"stage", "expansion"}}`.  Sorted by
/// key at registration so label order never splits series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// \brief Monotonic counter.  Thread-safe; `Inc` is wait-free.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-value gauge (queue depths, resident entries, ...).
class Gauge {
 public:
  void Set(double v) { bits_.store(Encode(v), std::memory_order_relaxed); }
  double value() const {
    return Decode(bits_.load(std::memory_order_relaxed));
  }

 private:
  static uint64_t Encode(double v);
  static double Decode(uint64_t bits);
  std::atomic<uint64_t> bits_{0};  // IEEE bits of 0.0
};

/// \name Histogram bucket layout
/// Every histogram shares one layout.  Values below `kHistogramMinValue`
/// land in the underflow bucket (whose range is [0, kHistogramMinValue));
/// values >= kHistogramMinValue * 2^kHistogramOctaves land in the
/// overflow bucket and clamp percentiles to the top edge.  Each octave
/// has `kHistogramSubBuckets` linear sub-buckets: relative bucket width
/// 1/8 = 12.5%.
/// @{
inline constexpr double kHistogramMinValue = 1e-3;
inline constexpr uint32_t kHistogramOctaves = 40;
inline constexpr uint32_t kHistogramSubBuckets = 8;
/// @}

/// \brief One consistent-enough copy of a histogram's state (relaxed
/// per-bucket loads; exact totals once writers quiesce).  Percentiles
/// are computed from this, so a snapshot taken before and after a
/// workload can be diffed for per-pass latencies (`DeltaSince`).
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  /// buckets[0] = underflow, then kHistogramOctaves * kHistogramSubBuckets
  /// log-linear buckets, then overflow.
  std::vector<uint64_t> buckets;

  /// \brief Linear-interpolated percentile from the bucket counts;
  /// `p` in [0, 1].  Returns 0 when the snapshot is empty.
  double Percentile(double p) const;

  /// \brief This snapshot minus an earlier one of the same instrument
  /// (bucket-wise); the per-pass view used by the serving bench.
  HistogramSnapshot DeltaSince(const HistogramSnapshot& earlier) const;
};

/// \brief Mergeable log-linear latency histogram.  Thread-safe:
/// `Record` is one relaxed bucket fetch_add plus a lock-free sum update.
class Histogram {
 public:
  Histogram();

  /// \brief Records one observation.  Wait-free bucket increment; no-op
  /// when observability is disabled (`SetEnabled(false)`).
  void Record(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  HistogramSnapshot snapshot() const;

  /// \brief Width of the bucket `value` falls into — the percentile
  /// error bound the accuracy test asserts against.
  double BucketWidthFor(double value) const;

 private:
  size_t BucketIndex(double value) const;

  std::vector<std::atomic<uint64_t>> buckets_;  // underflow + body + overflow
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // IEEE bits; CAS-added (lock-free)
};

/// \brief Named-instrument registry with stable-schema exporters.
///
/// `Global()` is the process-wide instance, and the only one the
/// serving stack records into: per-instance series stay apart by their
/// `{engine=N}`, `{server=N}` and `{cache=N}` labels.  Standalone
/// instances exist for unit-testing the instruments and exporters.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  /// \name Instrument registration
  /// Get-or-create by (name, labels); the returned pointer is stable for
  /// the registry's lifetime — resolve once, record forever.  Re-using a
  /// key with a different instrument kind is a programming error
  /// (aborts).  Takes the registry mutex; not for per-request paths.
  /// @{
  Counter* GetCounter(std::string_view name, Labels labels = {})
      WQE_EXCLUDES(mu_);
  Gauge* GetGauge(std::string_view name, Labels labels = {})
      WQE_EXCLUDES(mu_);
  Histogram* GetHistogram(std::string_view name, Labels labels = {})
      WQE_EXCLUDES(mu_);
  /// @}

  /// \brief Stable-schema JSON dump: `{"metrics": [...]}` with one
  /// object per instrument — `name`, `labels` (omitted when empty),
  /// `type`, and `value` (counter/gauge) or `count`/`sum`/`p50`/`p90`/
  /// `p95`/`p99` (histogram) — sorted by (name, serialized labels), so
  /// equal registry contents always dump byte-identically.
  std::string DumpJson() const WQE_EXCLUDES(mu_);

  /// \brief Prometheus-style text: counters and gauges as plain series,
  /// histograms as summaries (`{quantile="..."}` series plus `_sum` and
  /// `_count`).  Dots and dashes in names become underscores.
  std::string DumpPrometheus() const WQE_EXCLUDES(mu_);

  /// \brief Finished-span ring.  Every `Span` and the pools' `queue-wait`
  /// records append to the global registry's.
  TraceLog& trace_log() const { return trace_log_; }

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Instrument {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Instrument& GetOrCreate(std::string_view name, Labels labels, Kind kind)
      WQE_EXCLUDES(mu_);

  mutable common::Mutex mu_;
  /// Keyed by `name{k=v,...}` (labels sorted): the exporter order.
  std::map<std::string, Instrument> instruments_ WQE_GUARDED_BY(mu_);
  mutable TraceLog trace_log_;
};

/// \brief Process-unique small id for labeling per-instance instruments
/// (engines, servers, caches): 1, 2, 3, ... in construction order, so
/// dumps are deterministic for a deterministic program.
uint64_t NextInstanceId();

}  // namespace wqe::obs
