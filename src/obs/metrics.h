// Low-overhead metrics registry — counters, gauges and histograms with
// snapshot-on-read semantics (the ant-ray metrics/registry + metrics/group
// idiom, and the substrate for a future xstream-serve /metrics endpoint).
//
// Design constraints, in order:
//   1. Hot-path writes (the scatter loop, IoExecutor completions) must be
//      allocation-free and lock-free: Counter shards its cell across
//      cache-line-padded atomics indexed by a per-thread slot, so concurrent
//      Add()s never contend on one line. Handles are looked up once (name ->
//      reference) and held; the registry mutex guards creation only.
//   2. Reads are snapshots: Value()/ToJson() sum the shards at read time.
//      Totals are exact once writers quiesce (relaxed atomics, no loss).
//   3. Everything compiles out: building with -DXSTREAM_DISABLE_OBS turns
//      every write into a no-op (the escape hatch demanded by the <2%
//      overhead budget, see bench/obs_overhead.cc for the measured cost).
#ifndef XSTREAM_OBS_METRICS_H_
#define XSTREAM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace xstream::obs {

// Index of this thread's counter shard (assigned round-robin on first use).
int ThisThreadShard();

inline constexpr int kCounterShards = 16;

// Monotonic counter, per-thread sharded. Add() is one relaxed fetch_add on a
// thread-private cache line; Value() sums shards.
class Counter {
 public:
  void Add(uint64_t n = 1) {
#ifndef XSTREAM_DISABLE_OBS
    shards_[ThisThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& s : shards_) {
      s.v.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kCounterShards];
};

// Last-write-wins double gauge (resident bytes, queue depth, phase
// seconds). Set/Add are single atomic ops.
class Gauge {
 public:
  void Set(double v) {
#ifndef XSTREAM_DISABLE_OBS
    v_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  void Add(double delta) {
#ifndef XSTREAM_DISABLE_OBS
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
#else
    (void)delta;
#endif
  }

  double Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Log2-bucketed histogram for latencies and sizes. Bucket 0 holds values
// <= 1 (in the caller's unit); bucket i holds (2^(i-1), 2^i]. Observe() is
// one relaxed fetch_add plus a CAS-loop sum update — cheap enough for
// per-I/O-request use, not meant for the per-edge path (use a Counter
// there and divide at read time).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Observe(double v);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;

  // Upper bound of the bucket where the cumulative count crosses p in [0,1].
  // A bucketed estimate: exact to within one power of two.
  double Percentile(double p) const;

  uint64_t BucketCount(int i) const { return buckets_[i].load(std::memory_order_relaxed); }

  void Reset();

 private:
  static int BucketIndex(double v);

  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Name -> metric registry. Creation takes a mutex (held only at wiring
// time); lookups return stable references valid for the registry's life.
// Names are dot-separated, e.g. "io.ssd.read_bytes",
// "scheduler.scans_saved", "edge_cache.pinned_bytes".
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Snapshot of every metric as one JSON object:
  //   {"counters":{name:value,...},
  //    "gauges":{name:value,...},
  //    "histograms":{name:{"count":..,"sum":..,"mean":..,"p50":..,"p90":..,
  //                        "p99":..},...}}
  std::string ToJson() const;

  // Prometheus text exposition format v0.0.4 (the GET /metrics payload).
  // Dot-separated names are sanitized to the Prometheus charset
  // [a-zA-Z0-9_:] and prefixed "xstream_"; counters gain a "_total" suffix
  // per convention. Histograms render the log2 buckets as cumulative
  // `_bucket{le="2^i"}` series (bucket 0 -> le="1") up to the last
  // populated bound, then `le="+Inf"`, `_sum` and `_count`.
  std::string ToPrometheus() const;

  // Zeroes every metric (tests and bench repetitions). Handles stay valid.
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// A named prefix over a registry, so a component wires its metrics once:
//   MetricGroup g(MetricsRegistry::Global(), "io." + name);
//   read_bytes_ = &g.counter("read_bytes");   // -> "io.ssd.read_bytes"
class MetricGroup {
 public:
  MetricGroup(MetricsRegistry& registry, std::string prefix)
      : registry_(registry), prefix_(std::move(prefix)) {}

  Counter& counter(std::string_view suffix) { return registry_.counter(Name(suffix)); }
  Gauge& gauge(std::string_view suffix) { return registry_.gauge(Name(suffix)); }
  Histogram& histogram(std::string_view suffix) { return registry_.histogram(Name(suffix)); }

  const std::string& prefix() const { return prefix_; }

 private:
  std::string Name(std::string_view suffix) const {
    std::string s = prefix_;
    s.push_back('.');
    s.append(suffix);
    return s;
  }

  MetricsRegistry& registry_;
  std::string prefix_;
};

}  // namespace xstream::obs

#endif  // XSTREAM_OBS_METRICS_H_
