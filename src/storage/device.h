// StorageDevice: the "Slow Storage" abstraction (paper §2.1).
//
// The out-of-core engine stores one edge file, one update file and one vertex
// file per streaming partition (§3) on a device. Devices implement named
// flat files with offset reads/writes, appends, and truncation. Truncating a
// stream when it is destroyed models the TRIM behaviour the paper relies on
// for SSDs (§3.3).
//
// Implementations:
//  * PosixDevice — real files in a directory.
//  * SimDevice   — byte store with a virtual clock calibrated to the paper's
//                  HDD/SSD measurements; reproduces sequential-vs-random and
//                  device-scaling shapes deterministically on any host.
//  * RaidDevice  — RAID-0 striping over children (512 KB stripe unit, §5.1).
#ifndef XSTREAM_STORAGE_DEVICE_H_
#define XSTREAM_STORAGE_DEVICE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace xstream {

using FileId = int32_t;
inline constexpr FileId kInvalidFile = -1;

// RAID-0 stripe unit used by the paper's testbed (§5.1).
inline constexpr uint64_t kRaidStripeBytes = 512 * 1024;

struct DeviceStats {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t read_requests = 0;
  uint64_t write_requests = 0;
  uint64_t seeks = 0;  // non-contiguous requests (SimDevice only)
  // Device busy time: virtual service time for SimDevice, syscall wall time
  // for PosixDevice. The engine's simulated runtime is
  // max(compute wall time, max over devices of busy_seconds).
  double busy_seconds = 0.0;
};

// One I/O request, timestamped on the device clock; used to reconstruct the
// Fig 23 bandwidth timeline.
struct IoEvent {
  double time = 0.0;  // seconds on the device clock at request completion
  uint32_t bytes = 0;
  bool write = false;
};

class IoExecutor;

class StorageDevice {
 public:
  explicit StorageDevice(std::string name);
  virtual ~StorageDevice();

  StorageDevice(const StorageDevice&) = delete;
  StorageDevice& operator=(const StorageDevice&) = delete;

  const std::string& name() const { return name_; }

  // Creates (or truncates to empty) a file and returns its id.
  virtual FileId Create(const std::string& file) = 0;
  // Opens an existing file. Aborts if missing: stream files are always
  // created by the engine before being read.
  virtual FileId Open(const std::string& file) = 0;
  virtual bool Exists(const std::string& file) const = 0;
  virtual uint64_t FileSize(FileId f) const = 0;

  virtual void Read(FileId f, uint64_t offset, std::span<std::byte> out) = 0;
  virtual void Write(FileId f, uint64_t offset, std::span<const std::byte> data) = 0;
  // Appends at the end; returns the offset the data landed at.
  virtual uint64_t Append(FileId f, std::span<const std::byte> data) = 0;
  // Truncation frees blocks; on SSDs this turns into TRIM (§3.3).
  virtual void Truncate(FileId f, uint64_t new_size) = 0;
  virtual void Remove(const std::string& file) = 0;

  virtual DeviceStats stats() const = 0;
  virtual void ResetStats() = 0;

  // Mirrors stats() into the metrics registry as the monotonic counters
  // "device.<name>.{read_bytes,written_bytes,read_requests,write_requests,
  // seeks}" and the gauge "device.<name>.busy_seconds". Snapshot-on-read:
  // cheap enough to call at any reporting point (--stats-json, bench JSON
  // emission); per-request accounting stays in DeviceStats, the layer that
  // already computes the numbers.
  void PublishStats();

  // Drains and returns the request timeline accumulated since the last call.
  virtual std::vector<IoEvent> TakeTimeline() { return {}; }

  // The dedicated I/O thread for this device (paper §3.3: "spawns one thread
  // for each disk"). Created lazily; shared by all streams on the device.
  IoExecutor& executor();

 private:
  std::string name_;
  std::unique_ptr<IoExecutor> executor_;
};

}  // namespace xstream

#endif  // XSTREAM_STORAGE_DEVICE_H_
