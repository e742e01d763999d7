// POSIX file access with simulated NVM device timing.
//
// The paper (§2.3): "The PapyrusKV runtime accesses the NVM storages through
// the standard POSIX file system interface."  This layer is that interface:
// real files via open/pread/write — plus a charge to the DeviceRegistry
// entry that covers the file's path, which injects the modelled latency and
// bandwidth of the underlying device class (see device_model.h).
//
// File handles capture their device at open time, so per-I/O cost is one
// registry lookup at open, not per call.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "sim/device_model.h"

namespace papyrus::sim {

// Append-only file (SSTable writers, checkpoint images).
class WritableFile {
 public:
  ~WritableFile();
  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;

  // Writes data, first applying any armed storage failpoints (injected
  // ENOSPC; torn-write/bit-flip corruption on SSTable files) — see
  // src/fault/failpoint.h.
  Status Append(const Slice& data);
  // Flushes to the OS; charges the device's write latency once.
  Status Sync();
  Status Close();
  uint64_t bytes_written() const { return offset_; }

 private:
  friend class Storage;
  WritableFile(int fd, std::string path, std::shared_ptr<Device> dev)
      : fd_(fd), path_(std::move(path)), dev_(std::move(dev)) {}
  int fd_;
  std::string path_;
  uint64_t offset_ = 0;
  std::shared_ptr<Device> dev_;
};

// Positional reads (SSTable random access — the NVM fast path).
//
// Two read primitives, both charging the device for the bytes they return:
//   * Read copies through pread (bulk and sequential readers);
//   * View returns bytes in place from a read-only shared mapping that Map
//     creates — the byte-addressable NVM access the §2.6 binary search
//     assumes, with no syscall or copy per probe.
// A mapping of a file that later shrinks faults (SIGBUS) on the lost
// pages, so library code replaces published files by rename and never
// truncates them in place.
class RandomAccessFile {
 public:
  ~RandomAccessFile();
  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;

  // Reads up to n bytes at offset into scratch; *out views scratch.
  Status Read(uint64_t offset, size_t n, char* scratch, Slice* out) const;
  uint64_t size() const { return size_; }

  // Maps the whole file (its size now, not at open) read-only.  An empty
  // file maps nothing and every View of it comes back empty.  Not
  // thread-safe against View: callers publish the mapped file to readers
  // after Map returns.
  Status Map();
  // Views up to n bytes at offset within the mapping; *out is shorter
  // than n where the mapping ends, and stays valid until this file is
  // destroyed.
  void View(uint64_t offset, size_t n, Slice* out) const;

 private:
  friend class Storage;
  RandomAccessFile(int fd, uint64_t size, std::shared_ptr<Device> dev)
      : fd_(fd), size_(size), dev_(std::move(dev)) {}
  int fd_;
  uint64_t size_;
  std::shared_ptr<Device> dev_;
  const char* map_ = nullptr;
  uint64_t map_size_ = 0;
};

// Static facade over the filesystem.  All paths are plain POSIX paths; the
// device model is resolved per path prefix via DeviceRegistry.
class Storage {
 public:
  static Status NewWritableFile(const std::string& path,
                                std::unique_ptr<WritableFile>* out);
  static Status NewRandomAccessFile(const std::string& path,
                                    std::unique_ptr<RandomAccessFile>* out);

  // Whole-file convenience wrappers (bloom filters, SSIndex, manifests).
  static Status ReadFileToString(const std::string& path, std::string* out);
  static Status WriteStringToFile(const std::string& path, const Slice& data);

  static bool FileExists(const std::string& path);
  static Status GetFileSize(const std::string& path, uint64_t* size);
  // Lists entry names (not full paths) in dir, sorted; skips "." and "..".
  static Status ListDir(const std::string& dir, std::vector<std::string>* out);
  static Status RemoveFile(const std::string& path);
  static Status RemoveDirRecursive(const std::string& dir);
  static Status CreateDirs(const std::string& dir);  // mkdir -p
  static Status RenameFile(const std::string& from, const std::string& to);
  // Byte copy, charging reads on src's device and writes on dst's (the
  // checkpoint NVM→Lustre transfer path).  Writes `to` in place; use
  // store::CopySSTable to replace a published table file.
  static Status CopyFile(const std::string& from, const std::string& to);
};

}  // namespace papyrus::sim
