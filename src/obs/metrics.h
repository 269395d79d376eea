#ifndef LLMDM_OBS_METRICS_H_
#define LLMDM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace llmdm::obs {

/// Label pairs identifying one time series of an instrument ("shard" -> "0",
/// "model" -> "gpt-sim"). Order given by the caller does not matter: the
/// registry canonicalizes to sorted-by-key before using labels as part of an
/// instrument's identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic event count. Lock-free; safe to bump from any thread.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time signed value (queue length, breaker state, high-water mark).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if it is below it (high-water-mark semantics);
  /// concurrent SetMax calls converge on the true maximum.
  void SetMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-boundary histogram. Bucket boundaries are chosen at construction
/// and never adapt, and the running sum is accumulated in integer micro-units
/// rather than floating point — both so that a snapshot of a deterministic
/// workload is byte-identical regardless of how many threads observed into it
/// or in what order (integer addition commutes; float addition does not).
class Histogram {
 public:
  /// `bounds` must be strictly increasing; each bucket b counts observations
  /// with value <= bounds[b], plus one implicit +Inf bucket at the end.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  struct Snapshot {
    std::vector<double> bounds;     // upper edges, +Inf bucket implicit
    std::vector<uint64_t> buckets;  // bounds.size() + 1 cumulative-free counts
    uint64_t count = 0;
    int64_t sum_micros = 0;  // sum of observations in 1e-6 units
    double sum() const { return static_cast<double>(sum_micros) / 1e6; }
  };
  Snapshot TakeSnapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

  /// Canonical latency boundaries (virtual milliseconds) shared by every
  /// latency-shaped series in the tree, so cross-layer histograms line up.
  static std::vector<double> LatencyBoundsVms();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_micros_{0};
};

/// Owner of named instruments. Components either receive a registry from
/// their caller (so one process-wide registry can aggregate every layer of a
/// stack) or construct a private one, which keeps their legacy stats structs
/// per-instance. Instrument pointers are stable for the registry's lifetime;
/// Get* returns the existing instrument when (name, labels) was already
/// registered. Two instances writing the same (name, labels) into one shared
/// registry share the series — give each instance a distinguishing label if
/// that is not what you want.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels,
                          std::vector<double> bounds);

  /// Prometheus text exposition. Series are emitted in (name, sorted-labels)
  /// order, so two exports of the same instrument values are byte-identical.
  std::string PrometheusText() const;

  /// JSON snapshot with the same deterministic ordering; histogram sums are
  /// reported in exact integer micro-units.
  std::string JsonSnapshot() const;

  size_t instrument_count() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Instrument {
    Kind kind;
    Labels labels;  // canonical (sorted) form, for export
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  using Key = std::pair<std::string, std::string>;  // (name, label string)

  Instrument* GetOrCreate(const std::string& name, const Labels& labels,
                          Kind kind, std::vector<double> bounds);

  mutable std::mutex mu_;
  std::map<Key, Instrument> instruments_;
};

}  // namespace llmdm::obs

#endif  // LLMDM_OBS_METRICS_H_
