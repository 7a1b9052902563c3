#include "storage/device.h"

#include "obs/metrics.h"
#include "storage/io_executor.h"

namespace xstream {

StorageDevice::StorageDevice(std::string name) : name_(std::move(name)) {}

StorageDevice::~StorageDevice() = default;

IoExecutor& StorageDevice::executor() {
  if (!executor_) {
    executor_ = std::make_unique<IoExecutor>();
  }
  return *executor_;
}

void StorageDevice::PublishStats() {
  DeviceStats s = stats();
  obs::MetricGroup g(obs::MetricsRegistry::Global(), "device." + name_);
  auto publish = [&g](const char* metric, uint64_t v) {
    obs::Counter& c = g.counter(metric);
    uint64_t cur = c.Value();
    if (v > cur) {
      c.Add(v - cur);  // monotonic: republishing adds the delta since last time
    }
  };
  publish("read_bytes", s.bytes_read);
  publish("written_bytes", s.bytes_written);
  publish("read_requests", s.read_requests);
  publish("write_requests", s.write_requests);
  publish("seeks", s.seeks);
  g.gauge("busy_seconds").Set(s.busy_seconds);
}

}  // namespace xstream
