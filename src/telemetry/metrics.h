// MetricsRegistry: named counters, gauges, and log2-bucketed histograms
// with an allocation-free record path (src/telemetry/).
//
// The registry replaces TickStats' flat bag of per-tick micros as the
// *primary* store of latency series (TickStats stays as a compatibility
// view): histograms keep full distributions, so the p50/p95/p99 the
// ROADMAP's scaling items need — tick, probe, job-wait, barrier-stall —
// are one Snapshot() away instead of being averaged out of existence
// (PR 8's ~45% run-to-run noise went undiagnosed for exactly this
// reason).
//
// Contracts:
//   * Registration (Register*) happens at setup time, single-threaded —
//     the executor registers its standard series in the Telemetry
//     constructor. The record path indexes a stable cell by MetricId and
//     never takes a lock or allocates.
//   * Count / Set / Record are safe from any thread (relaxed atomics; a
//     histogram cell is 64 bucket counters + count/sum/min/max).
//   * Snapshot() is off the hot path: it copies every cell into plain
//     structs (allocating freely) and computes percentiles there. Under
//     concurrent recording the copy is approximate (per-cell torn reads
//     across fields), which is the standard trade for a lock-free
//     recorder.
//
// Histogram buckets are powers of two: bucket 0 holds v <= 0, bucket b
// (1..62) holds [2^(b-1), 2^b), bucket 63 is the overflow tail. A
// percentile query therefore has bucket-granularity accuracy;
// PercentileBounds() exposes the exact bucket range so tests can assert a
// sorted-reference percentile falls inside it.

#ifndef SGL_TELEMETRY_METRICS_H_
#define SGL_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace sgl {

/// Index into one kind's cell table (counters, gauges, and histograms
/// each have their own id space).
using MetricId = int;

inline constexpr int kHistogramBuckets = 64;

/// Bucket index for a recorded value: 0 for v <= 0, else 1 + floor(log2 v)
/// capped at the overflow tail.
inline int HistogramBucketIndex(int64_t v) {
  if (v <= 0) return 0;
  const int b = 64 - __builtin_clzll(static_cast<uint64_t>(v));
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

/// Inclusive value range covered by bucket `b`.
inline int64_t HistogramBucketLo(int b) {
  return b == 0 ? 0 : int64_t{1} << (b - 1);
}
inline int64_t HistogramBucketHi(int b) {
  if (b == 0) return 0;
  if (b >= kHistogramBuckets - 1) return std::numeric_limits<int64_t>::max();
  return (int64_t{1} << b) - 1;
}

/// Plain-struct copy of one histogram, with percentile queries.
struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  std::array<int64_t, kHistogramBuckets> buckets{};

  /// Nearest-rank percentile (p in [0, 100]), linearly interpolated
  /// inside the landing bucket and clamped to [min, max]. 0 when empty.
  double Percentile(double p) const;
  /// The inclusive bucket range containing the nearest-rank element —
  /// the registry's accuracy contract. False when empty.
  bool PercentileBounds(double p, int64_t* lo, int64_t* hi) const;
  double mean() const { return count > 0 ? static_cast<double>(sum) /
                                               static_cast<double>(count)
                                         : 0.0; }
};

/// Off-hot-path copy of the whole registry.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Histogram by name; nullptr when absent.
  const HistogramSnapshot* Find(const std::string& name) const;
  /// Counter/gauge by name; `fallback` when absent.
  int64_t Counter(const std::string& name, int64_t fallback = 0) const;
  int64_t Gauge(const std::string& name, int64_t fallback = 0) const;
  /// Human-readable table: one line per series, histograms with
  /// n/mean/p50/p95/p99/max.
  std::string Describe() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. Setup-time only (see header comment): the
  /// cell tables must not grow while another thread records.
  MetricId RegisterCounter(const std::string& name);
  MetricId RegisterGauge(const std::string& name);
  MetricId RegisterHistogram(const std::string& name);

  /// Record paths: lock-free, allocation-free, any thread.
  void Count(MetricId id, int64_t delta) {
    counters_[static_cast<size_t>(id)]->value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Set(MetricId id, int64_t value) {
    gauges_[static_cast<size_t>(id)]->value.store(value,
                                                  std::memory_order_relaxed);
  }
  void Record(MetricId id, int64_t value);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered cell (counters/gauges to 0, histograms to
  /// empty) while keeping registrations and MetricIds valid — phase
  /// boundaries in benchmarks reset between phases instead of rebuilding
  /// the registry. Quiescent-point API: no concurrent recording.
  void Reset();

 private:
  struct CounterCell {
    std::string name;
    std::atomic<int64_t> value{0};
  };
  struct HistogramCell {
    std::string name;
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> min{std::numeric_limits<int64_t>::max()};
    std::atomic<int64_t> max{std::numeric_limits<int64_t>::min()};
    std::array<std::atomic<int64_t>, kHistogramBuckets> buckets{};
  };

  std::vector<std::unique_ptr<CounterCell>> counters_;
  std::vector<std::unique_ptr<CounterCell>> gauges_;
  std::vector<std::unique_ptr<HistogramCell>> histograms_;
};

}  // namespace sgl

#endif  // SGL_TELEMETRY_METRICS_H_
