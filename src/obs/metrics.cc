#include "obs/metrics.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "util/json.h"

namespace xstream::obs {

namespace {
std::atomic<int> g_next_shard{0};

// Prometheus metric names allow [a-zA-Z0-9_:]; our dot-separated names map
// each invalid byte to '_' under an "xstream_" namespace prefix.
std::string PromName(const std::string& name, const char* suffix = "") {
  std::string out = "xstream_";
  out.reserve(out.size() + name.size() + 8);
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  out += suffix;
  return out;
}

void AppendDouble(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void AppendUint(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

// Subsystem-level description catalog for # HELP lines, keyed by the
// raw-name prefix each subsystem registers its metrics under (longest match
// wins). Coarse on purpose: series come and go with features, prefixes are
// the stable unit.
const char* MetricHelp(const std::string& name) {
  static constexpr struct {
    const char* prefix;
    const char* help;
  } kCatalog[] = {
      {"io.", "Per-device I/O executor: operation counts, bytes and queue timings."},
      {"device.", "Storage backend capability and liveness gauges."},
      {"store.codec.", "Update-stream compression: raw/encoded bytes and codec timings."},
      {"store.", "Stream-store internals: spill waits, gather waits, buffer occupancy."},
      {"scheduler.", "Multi-job scheduler: shared-scan rounds, admissions, job states."},
      {"residency.", "Hybrid residency planner: pinned partitions and migrations."},
      {"run.", "Live progress of the current solo run (driver-published gauges)."},
      {"job.", "Live progress of a scheduler job (driver-published gauges)."},
      {"telemetry.", "HTTP telemetry endpoint self-instrumentation."},
      {"trace.", "Phase tracer internals: recorded/dropped span counts."},
      {"bench.", "Microbenchmark scratch metrics (not produced by real runs)."},
  };
  const char* best = nullptr;
  size_t best_len = 0;
  for (const auto& entry : kCatalog) {
    size_t len = std::char_traits<char>::length(entry.prefix);
    if (len > best_len && name.compare(0, len, entry.prefix) == 0) {
      best = entry.help;
      best_len = len;
    }
  }
  return best != nullptr ? best : "xstream metric (see docs/observability.md).";
}

void AppendHelpType(std::string& out, const std::string& raw_name, const std::string& pname,
                    const char* type) {
  out += "# HELP ";
  out += pname;
  out.push_back(' ');
  out += MetricHelp(raw_name);
  out.push_back('\n');
  out += "# TYPE ";
  out += pname;
  out.push_back(' ');
  out += type;
  out.push_back('\n');
}
}  // namespace

int ThisThreadShard() {
  thread_local const int shard =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return shard;
}

int Histogram::BucketIndex(double v) {
  if (!(v > 1.0)) {
    return 0;  // also catches NaN and negatives
  }
  int exp = static_cast<int>(std::ceil(std::log2(v)));
  return exp < kBuckets ? exp : kBuckets - 1;
}

void Histogram::Observe(double v) {
#ifndef XSTREAM_DISABLE_OBS
  buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
#else
  (void)v;
#endif
}

double Histogram::Mean() const {
  uint64_t n = Count();
  return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
}

double Histogram::Percentile(double p) const {
  uint64_t total = 0;
  uint64_t counts[kBuckets];
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) {
    return 0.0;
  }
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank) {
      return std::ldexp(1.0, i);  // bucket upper bound 2^i (bucket 0 -> 1.0)
    }
  }
  return std::ldexp(1.0, kBuckets - 1);
}

void Histogram::Reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* r = new MetricsRegistry();  // leaked: outlives all threads
  return *r;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, c] : counters_) {
    w.Field(name, c->Value());
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, g] : gauges_) {
    w.Field(name, g->Value());
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms_) {
    w.Key(name).BeginObject();
    w.Field("count", h->Count());
    w.Field("sum", h->Sum());
    w.Field("mean", h->Mean());
    w.Field("p50", h->Percentile(0.50));
    w.Field("p90", h->Percentile(0.90));
    w.Field("p99", h->Percentile(0.99));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

std::string MetricsRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    std::string pname = PromName(name, "_total");
    AppendHelpType(out, name, pname, "counter");
    out += pname;
    out.push_back(' ');
    AppendUint(out, c->Value());
    out.push_back('\n');
  }
  for (const auto& [name, g] : gauges_) {
    std::string pname = PromName(name);
    AppendHelpType(out, name, pname, "gauge");
    out += pname;
    out.push_back(' ');
    AppendDouble(out, g->Value());
    out.push_back('\n');
  }
  for (const auto& [name, h] : histograms_) {
    std::string pname = PromName(name);
    AppendHelpType(out, name, pname, "histogram");
    // Log2 buckets: bucket i's upper bound is 2^i (bucket 0 holds <= 1).
    // Emit cumulative counts up to the last populated bound; every bound
    // after that is redundant with +Inf.
    int last = -1;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      if (h->BucketCount(i) > 0) {
        last = i;
      }
    }
    uint64_t cumulative = 0;
    for (int i = 0; i <= last; ++i) {
      cumulative += h->BucketCount(i);
      out += pname;
      out += "_bucket{le=\"";
      AppendUint(out, uint64_t{1} << i);
      out += "\"} ";
      AppendUint(out, cumulative);
      out.push_back('\n');
    }
    out += pname;
    out += "_bucket{le=\"+Inf\"} ";
    AppendUint(out, h->Count());
    out.push_back('\n');
    out += pname;
    out += "_sum ";
    AppendDouble(out, h->Sum());
    out.push_back('\n');
    out += pname;
    out += "_count ";
    AppendUint(out, h->Count());
    out.push_back('\n');
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) {
    c->Reset();
  }
  for (auto& [name, g] : gauges_) {
    g->Reset();
  }
  for (auto& [name, h] : histograms_) {
    h->Reset();
  }
}

}  // namespace xstream::obs
