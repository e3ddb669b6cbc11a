#ifndef FTREPAIR_COMMON_METRICS_H_
#define FTREPAIR_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ftrepair {

/// \brief Process-wide registry of named counters, gauges, and
/// fixed-bucket latency histograms.
///
/// Designed for hot-path cheapness: instruments fetch their metric once
/// (typically into a function-local static pointer, paying the registry
/// mutex a single time) and afterwards every update is one relaxed
/// atomic operation. Registered metrics are never deallocated while the
/// process lives, so cached pointers stay valid forever.
///
/// Naming convention (see docs/OBSERVABILITY.md for the full catalog):
/// dot-separated `ftrepair.<subsystem>.<what>[_<unit>]`, e.g.
/// `ftrepair.detect.candidates_verified`, `ftrepair.repair.total_ms`.
/// Labeled counters mangle the label into the name Prometheus-style:
/// `ftrepair.degradations{stage=exact->greedy}`.

/// Monotonic event count. Relaxed increments: safe from any thread,
/// no ordering guarantees with surrounding code.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0};
};

/// Fixed-bucket latency histogram (bounds in milliseconds, exponential
/// 10us..30s plus +inf overflow). Observe() is lock-free: a linear scan
/// over 14 bounds plus two relaxed atomic adds.
class Histogram {
 public:
  /// Upper bucket bounds in ms; an implicit +inf bucket follows.
  static constexpr std::array<double, 14> kBoundsMs = {
      0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000, 10000,
      30000};
  static constexpr size_t kNumBuckets = kBoundsMs.size() + 1;

  void Observe(double ms);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Count of bucket `i` (i == kBoundsMs.size() is the +inf bucket).
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Histogram() = default;
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

class MetricsRegistry {
 public:
  /// The process-wide registry (never destroyed).
  static MetricsRegistry& Instance();

  /// Finds or creates the named metric. The returned pointer is stable
  /// for the process lifetime — cache it in a static at the call site.
  /// A name registered as one kind must not be re-requested as another
  /// (returns the existing metric of the requested kind or aborts a
  /// debug build via logging; release builds get a fresh suffix).
  Counter* GetCounter(const std::string& name);
  /// Labeled counter: registered as `name{key=value}`.
  Counter* GetCounter(const std::string& name, const std::string& label_key,
                      const std::string& label_value);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// JSON snapshot of every registered metric:
  /// {"counters":{...},"gauges":{...},"histograms":{"name":
  ///   {"count":N,"sum":S,"buckets":[{"le":0.01,"count":n},...,
  ///    {"le":"+inf","count":n}]}}}
  /// Names are emitted in sorted order, so output is deterministic.
  std::string SnapshotJson() const;

  /// Zeroes every registered metric (registrations survive, cached
  /// pointers stay valid). For tests and the CLI's per-run snapshots.
  void Reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand for MetricsRegistry::Instance().
inline MetricsRegistry& Metrics() { return MetricsRegistry::Instance(); }

/// Escapes `s` for embedding in a JSON string literal (shared by the
/// metrics snapshot and the trace exporter).
std::string JsonEscape(const std::string& s);

}  // namespace ftrepair

#endif  // FTREPAIR_COMMON_METRICS_H_
