// Shared pieces of the perfbench binary: timing, statistics, the metric
// report printed as the last output line, the span recorder behind the
// traced run, and small file helpers for the cached inputs and oracles.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

// ---- Time and statistics ----------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linear interpolation between order statistics (q in [0,1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

// Filesystem type name of `path` ("ext4", "tmpfs", ...), for the output.
std::string FilesystemType(const std::string& path);

// ---- Run configuration ------------------------------------------------------

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;           // tiny inputs, for the benchmark's own tests
  bool corrupt_oracle = false;  // perturb the oracle: the verifier must fail
  std::string data_dir;         // cached inputs and oracles (per seed)
  std::string scratch_dir;      // engine scratch files (local disk)
  std::string out_dir;          // trace files
  int threads = 2;              // engine compute threads
};

// ---- Metric report ----------------------------------------------------------

// One named metric and its unit. The catalogs below are the complete sets
// printed with --trace 0 (end-to-end) and --trace 1 (per layer); a metric a
// workload does not exercise is printed as 0.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const;
  void CountOperation(bool ok) {
    ++attempted_;
    failed_ += ok ? 0 : 1;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // Prints the result object as one line: every metric of `catalog`, with
  // its unit, plus the operation counts.
  void Print(const std::vector<MetricDef>& catalog) const;

 private:
  std::map<std::string, double> values_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---- Spans ------------------------------------------------------------------

// Span recorder for the traced run. Spans are recorded by the benchmark
// around its calls into each layer (nothing inside the library is
// instrumented), kept in memory and written as one JSON document at the end.
// Disabled recorders make every call a no-op. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  double Now() const { return SecondsSince(epoch_); }

  // Records a finished span; returns its id (0 when disabled). `parent` 0 =
  // root; `request` groups the spans of one serve query (0 = none).
  uint64_t Add(const std::string& layer, const std::string& name, double start, double end,
               uint64_t parent = 0, uint64_t request = 0);
  // Allocates an id for a span whose end is not known yet (children can name
  // it as parent before Finish records it).
  uint64_t Reserve();
  void Finish(uint64_t id, const std::string& layer, const std::string& name, double start,
              double end, uint64_t parent = 0, uint64_t request = 0);
  // A count observed at a layer boundary.
  void Count(const std::string& layer, const std::string& name, double value,
             uint64_t span = 0);

  // {"spans":[...],"counts":[...]}; false on I/O failure.
  bool Write(const std::string& path) const;
  size_t span_count() const;

 private:
  struct SpanRec {
    uint64_t id, parent, request;
    std::string layer, name;
    double start, end;
  };
  struct CountRec {
    std::string layer, name;
    double value;
    uint64_t span;
  };
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;  // guards everything below
  uint64_t next_id_ = 1;
  std::vector<SpanRec> spans_;
  std::vector<CountRec> counts_;
};

// RAII span: records [construction, End()/destruction) under `parent`.
class Span {
 public:
  Span(Tracer& tracer, std::string layer, std::string name, uint64_t parent = 0,
       uint64_t request = 0)
      : tracer_(tracer),
        layer_(std::move(layer)),
        name_(std::move(name)),
        parent_(parent),
        request_(request),
        id_(tracer.Reserve()),
        start_(tracer.enabled() ? tracer.Now() : 0.0) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }
  void End() {
    if (!done_) {
      done_ = true;
      if (tracer_.enabled()) {
        tracer_.Finish(id_, layer_, name_, start_, tracer_.Now(), parent_, request_);
      }
    }
  }

 private:
  Tracer& tracer_;
  std::string layer_, name_;
  uint64_t parent_, request_, id_;
  double start_;
  bool done_ = false;
};

// ---- Files ------------------------------------------------------------------

bool FileExists(const std::string& path);
void WriteBytes(const std::string& path, const void* data, size_t bytes);
std::vector<char> ReadBytes(const std::string& path);

template <typename T>
void WriteVector(const std::string& path, const std::vector<T>& v) {
  WriteBytes(path, v.data(), v.size() * sizeof(T));
}

// Reads a file of packed T records (no intermediate copy: oracles are large).
template <typename T>
std::vector<T> ReadVector(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::vector<T> v(static_cast<size_t>(in.tellg()) / sizeof(T));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(v.size() * sizeof(T)));
  return v;
}

// Prints an informational line (never the last line of the output).
void Info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
