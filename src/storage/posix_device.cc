#include "storage/posix_device.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "util/logging.h"
#include "util/timer.h"

namespace xstream {

namespace {

// `path` only names the file in the abort message. A pread that returns 0
// means the file on disk is shorter than the size the device recorded for
// it — something truncated it behind the device's back.
void FullPread(int fd, void* buf, size_t len, uint64_t offset, const std::string& path) {
  auto* p = static_cast<char*>(buf);
  while (len > 0) {
    ssize_t n = ::pread(fd, p, len, static_cast<off_t>(offset));
    XS_CHECK_GE(n, 0) << "pread of " << path << " at offset " << offset
                      << " failed: " << std::strerror(errno);
    XS_CHECK_GT(n, 0) << "unexpected EOF reading " << path << " at offset " << offset;
    p += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
}

void FullPwrite(int fd, const void* buf, size_t len, uint64_t offset) {
  const auto* p = static_cast<const char*>(buf);
  while (len > 0) {
    ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(offset));
    XS_CHECK_GT(n, 0) << "pwrite failed: " << std::strerror(errno);
    p += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
}

}  // namespace

PosixDevice::PosixDevice(std::string name, std::string root)
    : StorageDevice(std::move(name)), root_(std::move(root)) {
  XS_CHECK(std::filesystem::is_directory(root_)) << root_ << " is not a directory";
}

PosixDevice::~PosixDevice() {
  for (auto& f : files_) {
    if (f.fd >= 0) {
      ::close(f.fd);
    }
  }
}

PosixDevice::File& PosixDevice::GetFile(FileId f) {
  XS_CHECK(f >= 0 && static_cast<size_t>(f) < files_.size()) << "bad file id " << f;
  File& file = files_[static_cast<size_t>(f)];
  XS_CHECK(file.live) << "file " << file.path << " was removed";
  return file;
}

const PosixDevice::File& PosixDevice::GetFile(FileId f) const {
  XS_CHECK(f >= 0 && static_cast<size_t>(f) < files_.size()) << "bad file id " << f;
  const File& file = files_[static_cast<size_t>(f)];
  XS_CHECK(file.live) << "file " << file.path << " was removed";
  return file;
}

FileId PosixDevice::OpenInternal(const std::string& file, bool truncate) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(file);
  if (it != by_name_.end()) {
    File& existing = files_[static_cast<size_t>(it->second)];
    if (truncate) {
      XS_CHECK_EQ(::ftruncate(existing.fd, 0), 0) << std::strerror(errno);
      existing.size = 0;
    }
    existing.live = true;
    return it->second;
  }

  std::string path = root_ + "/" + file;
  int flags = O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0);
  int fd = ::open(path.c_str(), flags, 0644);
  XS_CHECK_GE(fd, 0) << "open(" << path << ") failed: " << std::strerror(errno);

  off_t size = ::lseek(fd, 0, SEEK_END);
  XS_CHECK_GE(size, 0) << std::strerror(errno);

  FileId id = static_cast<FileId>(files_.size());
  files_.push_back(File{path, fd, static_cast<uint64_t>(size), true});
  by_name_[file] = id;
  return id;
}

FileId PosixDevice::Create(const std::string& file) { return OpenInternal(file, true); }

FileId PosixDevice::Open(const std::string& file) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (by_name_.count(file) == 0) {
      XS_CHECK(std::filesystem::exists(root_ + "/" + file))
          << "open of missing file " << file << " on " << name();
    }
  }
  return OpenInternal(file, false);
}

bool PosixDevice::Exists(const std::string& file) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_name_.find(file);
    if (it != by_name_.end()) {
      return files_[static_cast<size_t>(it->second)].live;
    }
  }
  return std::filesystem::exists(root_ + "/" + file);
}

uint64_t PosixDevice::FileSize(FileId f) const {
  std::lock_guard<std::mutex> lock(mu_);
  return GetFile(f).size;
}

void PosixDevice::Read(FileId f, uint64_t offset, std::span<std::byte> out) {
  int fd;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    File& file = GetFile(f);
    XS_CHECK_LE(offset + out.size(), file.size) << "read past EOF of " << file.path;
    fd = file.fd;
    path = file.path;
  }
  WallTimer timer;
  FullPread(fd, out.data(), out.size(), offset, path);
  double elapsed = timer.Seconds();
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes_read += out.size();
  ++stats_.read_requests;
  stats_.busy_seconds += elapsed;
}

void PosixDevice::Write(FileId f, uint64_t offset, std::span<const std::byte> data) {
  int fd;
  {
    std::lock_guard<std::mutex> lock(mu_);
    File& file = GetFile(f);
    fd = file.fd;
    file.size = std::max(file.size, offset + data.size());
  }
  WallTimer timer;
  FullPwrite(fd, data.data(), data.size(), offset);
  double elapsed = timer.Seconds();
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes_written += data.size();
  ++stats_.write_requests;
  stats_.busy_seconds += elapsed;
}

uint64_t PosixDevice::Append(FileId f, std::span<const std::byte> data) {
  uint64_t offset;
  {
    std::lock_guard<std::mutex> lock(mu_);
    offset = GetFile(f).size;
  }
  Write(f, offset, data);
  return offset;
}

void PosixDevice::Truncate(FileId f, uint64_t new_size) {
  std::lock_guard<std::mutex> lock(mu_);
  File& file = GetFile(f);
  if (new_size < file.size) {
    XS_CHECK_EQ(::ftruncate(file.fd, static_cast<off_t>(new_size)), 0) << std::strerror(errno);
    file.size = new_size;
  }
}

void PosixDevice::Remove(const std::string& file) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(file);
  if (it != by_name_.end()) {
    File& f = files_[static_cast<size_t>(it->second)];
    if (f.fd >= 0) {
      ::close(f.fd);
      f.fd = -1;
    }
    f.live = false;
    by_name_.erase(it);
  }
  std::filesystem::remove(root_ + "/" + file);
}

DeviceStats PosixDevice::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PosixDevice::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = DeviceStats{};
}

ScratchDir::ScratchDir(const std::string& prefix) {
  const char* tmp = std::getenv("TMPDIR");
  std::string base = tmp != nullptr ? tmp : "/tmp";
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::string candidate =
        base + "/" + prefix + "." + std::to_string(::getpid()) + "." + std::to_string(attempt);
    std::error_code ec;
    if (std::filesystem::create_directory(candidate, ec)) {
      path_ = candidate;
      return;
    }
  }
  XS_CHECK(false) << "could not create scratch directory under " << base;
}

ScratchDir::~ScratchDir() {
  if (!path_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
}

}  // namespace xstream
