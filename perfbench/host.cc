#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <span>
#include <vector>

#include "storage/posix_device.h"
#include "threads/thread_pool.h"
#include "util/env.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Size of the last-level cache from sysfs (the highest cache index level);
// falls back to the per-core cache probe.
size_t LastLevelCacheBytes() {
  size_t best = 0;
  int best_level = 0;
  for (int i = 0; i < 8; ++i) {
    std::string base = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level_in(base + "level");
    std::ifstream size_in(base + "size");
    int level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size) || size.empty()) {
      continue;
    }
    size_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    char suffix = size.back();
    bytes *= suffix == 'K' ? 1024 : suffix == 'M' ? 1024 * 1024 : 1;
    if (level > best_level || (level == best_level && bytes > best)) {
      best_level = level;
      best = bytes;
    }
  }
  return best > 0 ? best : xstream::PerCoreCacheBytes();
}

template <typename F>
double BestSeconds(int reps, F&& body) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    body();
    best = std::min(best, SecondsSince(t0));
  }
  return best;
}

}  // namespace

HostCeilings MeasureHost(const RunConfig& cfg, Tracer& tracer, const std::string& dir,
                         const std::string& file) {
  HostCeilings host;
  xstream::ThreadPool pool(cfg.threads);
  size_t llc = LastLevelCacheBytes();
  // 4x the last-level cache, within [256 MiB, 1 GiB]: some virtual CPUs report
  // caches of hundreds of MiB, and two such arrays must not crowd the host.
  size_t bytes = cfg.smoke ? (16u << 20)
                           : std::clamp<size_t>(4 * llc, size_t{256} << 20, size_t{1} << 30);
  size_t words = bytes / sizeof(uint64_t);
  Info("host: last-level cache %zu bytes, ceiling arrays %zu bytes (%.1fx LLC), %d threads",
       llc, bytes, static_cast<double>(bytes) / static_cast<double>(llc), cfg.threads);
  std::vector<uint64_t> src(words, 1);
  std::vector<uint64_t> dst(words, 0);
  const uint64_t grain = (1u << 20) / sizeof(uint64_t);
  {
    Span span(tracer, "host", "host.mem_read");
    std::atomic<uint64_t> sink{0};
    double s = BestSeconds(3, [&] {
      Span inner(tracer, "threads", "threads.parallel_for", span.id());
      pool.ParallelFor(0, words, grain, [&](uint64_t lo, uint64_t hi) {
        uint64_t acc = 0;
        for (uint64_t i = lo; i < hi; ++i) {
          acc += src[i];
        }
        sink.fetch_add(acc, std::memory_order_relaxed);
      });
    });
    host.mem_read_gb_per_s = static_cast<double>(bytes) / s / 1e9;
    if (sink.load() == 0) {
      Info("host: empty read");  // keeps the summation observable
    }
  }
  {
    Span span(tracer, "host", "host.memcpy");
    double s = BestSeconds(3, [&] {
      Span inner(tracer, "threads", "threads.parallel_for", span.id());
      pool.ParallelFor(0, words, grain, [&](uint64_t lo, uint64_t hi) {
        std::memcpy(dst.data() + lo, src.data() + lo, (hi - lo) * sizeof(uint64_t));
      });
    });
    host.memcpy_gb_per_s = static_cast<double>(bytes) / s / 1e9;
  }
  {
    Span span(tracer, "host", "host.file_read");
    xstream::PosixDevice dev("host", dir);
    xstream::FileId f = dev.Open(file);
    uint64_t size = dev.FileSize(f);
    constexpr size_t kIoUnit = 1 << 20;
    std::vector<std::byte> buf(kIoUnit);
    double s = BestSeconds(2, [&] {
      for (uint64_t off = 0; off < size; off += kIoUnit) {
        size_t n = static_cast<size_t>(std::min<uint64_t>(kIoUnit, size - off));
        dev.Read(f, off, std::span<std::byte>(buf.data(), n));
      }
    });
    host.file_read_mb_per_s = static_cast<double>(size) / s / 1e6;
    Info("host: file read of %llu bytes at a 1 MiB I/O unit on %s",
         static_cast<unsigned long long>(size), FilesystemType(dir).c_str());
  }
  Info("host: mem read %.2f GB/s, memcpy %.2f GB/s, file read %.0f MB/s",
       host.mem_read_gb_per_s, host.memcpy_gb_per_s, host.file_read_mb_per_s);
  return host;
}

void ReportHost(const HostCeilings& host, Report& report) {
  report.Set("host.mem_read_gb_per_s", host.mem_read_gb_per_s);
  report.Set("host.memcpy_gb_per_s", host.memcpy_gb_per_s);
  report.Set("host.file_read_mb_per_s", host.file_read_mb_per_s);
}

}  // namespace perfbench
