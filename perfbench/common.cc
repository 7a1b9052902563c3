#include "common.h"

#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

// ---- Metric catalogs --------------------------------------------------------

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},          {"edges_per_s", "edges/s"}, {"queries_per_s", "1/s"},
      {"query_p50_s", "s"},      {"query_p90_s", "s"},       {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"graph.load_s", "s"},
      {"graph.load_gb_per_s", "GB/s"},
      {"partitioning.edge_balance", "ratio"},
      {"core.setup_s", "s"},
      {"core.init_s", "s"},
      {"core.iteration_s", "s"},
      {"core.scatter_s", "s"},
      {"core.shuffle_s", "s"},
      {"core.gather_s", "s"},
      {"core.edges_streamed", "count"},
      {"core.updates_generated", "count"},
      {"core.wasted_edge_frac", "ratio"},
      {"core.scatter_mem_util", "ratio"},
      {"buffers.shuffle_gb_per_s", "GB/s"},
      {"buffers.shuffle_util", "ratio"},
      {"threads.steals", "count"},
      {"storage.edge_read_wait_s", "s"},
      {"storage.spill_wait_s", "s"},
      {"storage.gather_wait_s", "s"},
      {"storage.bytes_read", "bytes"},
      {"storage.bytes_written", "bytes"},
      {"storage.busy_s", "s"},
      {"storage.update_file_bytes", "bytes"},
      {"storage.absorbed_frac", "ratio"},
      {"storage.read_util", "ratio"},
      {"residency.resident_partitions", "count"},
      {"residency.migration_bytes", "bytes"},
      {"codec.encoded_bytes", "bytes"},
      {"scheduler.queue_s", "s"},
      {"scheduler.run_s", "s"},
      {"scheduler.scans_saved", "count"},
      {"scheduler.shared_scan_bytes", "bytes"},
      {"scheduler.rounds_completed", "count"},
      {"serve.mount_s", "s"},
      {"serve.submit_s", "s"},
      {"serve.polls_per_query", "count"},
      {"serve.result_s", "s"},
      {"serve.result_bytes", "bytes"},
      {"serve.result_encode_s", "s"},
      {"obs.trace_overhead_frac", "ratio"},
      {"host.mem_read_gb_per_s", "GB/s"},
      {"host.memcpy_gb_per_s", "GB/s"},
      {"host.file_read_mb_per_s", "MB/s"},
  };
  return kMetrics;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::Print(const std::vector<MetricDef>& catalog) const {
  bool correct = attempted_ > 0 && failed_ == 0;
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted_
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (size_t i = 0; i < catalog.size(); ++i) {
    double v = Get(catalog[i].name);
    if (!std::isfinite(v)) {
      v = 0.0;
    }
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    out << (i ? ", " : "") << "\"" << catalog[i].name << "\": {\"value\": " << num
        << ", \"unit\": \"" << catalog[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

// ---- Tracer -----------------------------------------------------------------

uint64_t Tracer::Reserve() {
  if (!enabled_) {
    return 0;
  }
  std::lock_guard<std::mutex> lk(mu_);
  return next_id_++;
}

uint64_t Tracer::Add(const std::string& layer, const std::string& name, double start,
                     double end, uint64_t parent, uint64_t request) {
  if (!enabled_) {
    return 0;
  }
  uint64_t id = Reserve();
  Finish(id, layer, name, start, end, parent, request);
  return id;
}

void Tracer::Finish(uint64_t id, const std::string& layer, const std::string& name,
                    double start, double end, uint64_t parent, uint64_t request) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(SpanRec{id, parent, request, layer, name, start, std::max(start, end)});
}

void Tracer::Count(const std::string& layer, const std::string& name, double value,
                   uint64_t span) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lk(mu_);
  counts_.push_back(CountRec{layer, name, value, span});
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream out(path);
  char num[64];
  auto fmt = [&num](double v) {
    std::snprintf(num, sizeof(num), "%.9g", std::isfinite(v) ? v : 0.0);
    return std::string(num);
  };
  // Names are benchmark-chosen identifiers (no characters needing escapes).
  out << "{\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"layer\": \"" << s.layer << "\", \"name\": \""
        << s.name << "\", \"start_s\": " << fmt(s.start) << ", \"end_s\": " << fmt(s.end)
        << "}";
  }
  out << "],\n\"counts\": [";
  for (size_t i = 0; i < counts_.size(); ++i) {
    const CountRec& c = counts_[i];
    out << (i ? ",\n" : "\n") << "{\"layer\": \"" << c.layer << "\", \"name\": \"" << c.name
        << "\", \"value\": " << fmt(c.value) << ", \"span\": " << c.span << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---- Files ------------------------------------------------------------------

bool FileExists(const std::string& path) { return std::ifstream(path).good(); }

void WriteBytes(const std::string& path, const void* data, size_t bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  return std::vector<char>(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void Info(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace perfbench
