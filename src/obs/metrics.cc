#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/macros.h"

namespace wqe::obs {

namespace {

/// Serialized instrument key: `name{k=v,...}` with labels already sorted.
std::string InstrumentKey(std::string_view name, const Labels& labels) {
  std::string key(name);
  if (!labels.empty()) {
    key += '{';
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) key += ',';
      key += labels[i].first;
      key += '=';
      key += labels[i].second;
    }
    key += '}';
  }
  return key;
}

/// Compact deterministic double formatting for the exporters.
std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void AppendJsonString(std::string* out, std::string_view s) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      default:
        *out += c;
    }
  }
  *out += '"';
}

std::string PrometheusName(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

std::string PrometheusLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += labels[i].second;
    out += '"';
  }
  out += '}';
  return out;
}

/// Quantiles both exporters publish for histograms.
constexpr double kQuantiles[] = {0.5, 0.9, 0.95, 0.99};
constexpr const char* kQuantileJsonKeys[] = {"p50", "p90", "p95", "p99"};
constexpr const char* kQuantileLabels[] = {"0.5", "0.9", "0.95", "0.99"};

}  // namespace

// ----------------------------------------------------------------- Gauge

uint64_t Gauge::Encode(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double Gauge::Decode(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// ------------------------------------------------------------- Histogram

Histogram::Histogram()
    : buckets_(2 + size_t(kHistogramOctaves) * size_t(kHistogramSubBuckets)) {}

size_t Histogram::BucketIndex(double value) const {
  // Underflow also absorbs NaN (the !(>=) form) so Record never indexes
  // out of range on garbage input.
  if (!(value >= kHistogramMinValue)) return 0;
  const double ratio = value / kHistogramMinValue;
  const int octave = std::ilogb(ratio);  // floor(log2) for finite positives
  if (octave >= int(kHistogramOctaves)) return buckets_.size() - 1;
  const double base = std::ldexp(kHistogramMinValue, octave);
  uint32_t sub =
      uint32_t((value - base) / base * double(kHistogramSubBuckets));
  sub = std::min(sub, kHistogramSubBuckets - 1);
  return 1 + size_t(octave) * kHistogramSubBuckets + sub;
}

double Histogram::BucketWidthFor(double value) const {
  if (!(value >= kHistogramMinValue)) return kHistogramMinValue;
  const int octave = std::ilogb(value / kHistogramMinValue);
  if (octave >= int(kHistogramOctaves)) return 0.0;  // overflow: clamped
  return std::ldexp(kHistogramMinValue, octave) / double(kHistogramSubBuckets);
}

void Histogram::Record(double value) {
  if (!Enabled()) return;
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Lock-free CAS add on the IEEE bits (atomic<double>::fetch_add is
  // exactly this loop under the hood; spelled out to stay pre-C++20-ABI
  // portable across libstdc++ versions).
  uint64_t observed = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    double current = 0.0;
    std::memcpy(&current, &observed, sizeof(current));
    const double next = current + value;
    uint64_t next_bits = 0;
    std::memcpy(&next_bits, &next, sizeof(next_bits));
    if (sum_bits_.compare_exchange_weak(observed, next_bits,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.resize(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  const uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  std::memcpy(&snap.sum, &bits, sizeof(snap.sum));
  // Relaxed reads can race Record between the bucket loop and the count
  // load; percentile math must see a self-consistent total.
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  snap.count = bucket_total;
  return snap;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0 || buckets.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double rank = p * double(count - 1);
  const uint32_t sub = kHistogramSubBuckets;
  uint64_t cum = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (double(cum + buckets[i]) <= rank) {
      cum += buckets[i];
      continue;
    }
    // Bucket bounds: [0, min) for underflow; top edge for overflow.
    double lo, width;
    if (i == 0) {
      lo = 0.0;
      width = kHistogramMinValue;
    } else if (i == buckets.size() - 1) {
      return std::ldexp(kHistogramMinValue, int(kHistogramOctaves));
    } else {
      const size_t body = i - 1;
      const int octave = int(body / sub);
      const uint32_t j = uint32_t(body % sub);
      const double base = std::ldexp(kHistogramMinValue, octave);
      lo = base * (1.0 + double(j) / double(sub));
      width = base / double(sub);
    }
    const double inside = rank - double(cum);
    const double frac = (inside + 0.5) / double(buckets[i]);
    return lo + width * std::min(frac, 1.0);
  }
  // rank == count - 1 landed exactly past the loop (all-counted): top
  // non-empty bucket's upper edge.
  return std::ldexp(kHistogramMinValue, int(kHistogramOctaves));
}

HistogramSnapshot HistogramSnapshot::DeltaSince(
    const HistogramSnapshot& earlier) const {
  HistogramSnapshot delta;
  delta.buckets.resize(buckets.size());
  WQE_CHECK(earlier.buckets.size() == buckets.size());
  uint64_t total = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    WQE_CHECK(buckets[i] >= earlier.buckets[i]);  // counts are monotonic
    delta.buckets[i] = buckets[i] - earlier.buckets[i];
    total += delta.buckets[i];
  }
  delta.count = total;
  delta.sum = sum - earlier.sum;
  return delta;
}

// -------------------------------------------------------------- Registry

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* global = new MetricsRegistry();  // never destroyed
  return *global;
}

MetricsRegistry::Instrument& MetricsRegistry::GetOrCreate(
    std::string_view name, Labels labels, Kind kind) {
  std::sort(labels.begin(), labels.end());
  std::string key = InstrumentKey(name, labels);
  common::MutexLock lock(mu_);
  auto it = instruments_.find(key);
  if (it == instruments_.end()) {
    Instrument instrument;
    instrument.name = std::string(name);
    instrument.labels = std::move(labels);
    instrument.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        instrument.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        instrument.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        instrument.histogram = std::make_unique<Histogram>();
        break;
    }
    it = instruments_.emplace(std::move(key), std::move(instrument)).first;
  }
  WQE_CHECK(it->second.kind == kind);  // one key, one instrument kind
  return it->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name, Labels labels) {
  return GetOrCreate(name, std::move(labels), Kind::kCounter).counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, Labels labels) {
  return GetOrCreate(name, std::move(labels), Kind::kGauge).gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         Labels labels) {
  return GetOrCreate(name, std::move(labels), Kind::kHistogram)
      .histogram.get();
}

std::string MetricsRegistry::DumpJson() const {
  common::MutexLock lock(mu_);
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& [key, instrument] : instruments_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    AppendJsonString(&out, instrument.name);
    if (!instrument.labels.empty()) {
      out += ",\"labels\":{";
      for (size_t i = 0; i < instrument.labels.size(); ++i) {
        if (i > 0) out += ',';
        AppendJsonString(&out, instrument.labels[i].first);
        out += ':';
        AppendJsonString(&out, instrument.labels[i].second);
      }
      out += '}';
    }
    switch (instrument.kind) {
      case Kind::kCounter:
        out += ",\"type\":\"counter\",\"value\":";
        out += FormatValue(double(instrument.counter->value()));
        break;
      case Kind::kGauge:
        out += ",\"type\":\"gauge\",\"value\":";
        out += FormatValue(instrument.gauge->value());
        break;
      case Kind::kHistogram: {
        HistogramSnapshot snap = instrument.histogram->snapshot();
        out += ",\"type\":\"histogram\",\"count\":";
        out += FormatValue(double(snap.count));
        out += ",\"sum\":";
        out += FormatValue(snap.sum);
        for (size_t q = 0; q < std::size(kQuantiles); ++q) {
          out += ",\"";
          out += kQuantileJsonKeys[q];
          out += "\":";
          out += FormatValue(snap.Percentile(kQuantiles[q]));
        }
        break;
      }
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string MetricsRegistry::DumpPrometheus() const {
  common::MutexLock lock(mu_);
  std::string out;
  for (const auto& [key, instrument] : instruments_) {
    const std::string name = PrometheusName(instrument.name);
    const std::string labels = PrometheusLabels(instrument.labels);
    switch (instrument.kind) {
      case Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + labels + " " +
               std::to_string(instrument.counter->value()) + "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + labels + " " + FormatValue(instrument.gauge->value()) +
               "\n";
        break;
      case Kind::kHistogram: {
        HistogramSnapshot snap = instrument.histogram->snapshot();
        out += "# TYPE " + name + " summary\n";
        for (size_t q = 0; q < std::size(kQuantiles); ++q) {
          Labels with_quantile = instrument.labels;
          with_quantile.emplace_back("quantile", kQuantileLabels[q]);
          out += name + PrometheusLabels(with_quantile) + " " +
                 FormatValue(snap.Percentile(kQuantiles[q])) + "\n";
        }
        out += name + "_sum" + labels + " " + FormatValue(snap.sum) + "\n";
        out += name + "_count" + labels + " " + std::to_string(snap.count) +
               "\n";
        break;
      }
    }
  }
  return out;
}

uint64_t NextInstanceId() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace wqe::obs
