#include "sim/storage.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>

#include "fault/failpoint.h"

namespace papyrus::sim {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status(PAPYRUSKV_IO_ERROR,
                what + " " + path + ": " + strerror(errno));
}

// SSTable data/index/bloom files (including .tmp staging names) are the
// corruption targets for the sstable.* failpoints.
bool IsSstablePath(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string_view base =
      slash == std::string::npos
          ? std::string_view(path)
          : std::string_view(path).substr(slash + 1);
  return base.find("sst_") != std::string_view::npos;
}

}  // namespace

WritableFile::~WritableFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status WritableFile::Append(const Slice& data) {
  Slice out = data;
  std::string mangled;
  if (fault::Enabled()) {
    static fault::Point& enospc =
        fault::Registry::Instance().GetPoint("storage.write.enospc");
    if (enospc.Fire()) {
      return Status::IOError("injected ENOSPC writing " + path_);
    }
    if (!data.empty() && IsSstablePath(path_)) {
      static fault::Point& torn =
          fault::Registry::Instance().GetPoint("sstable.write.torn");
      static fault::Point& flip =
          fault::Registry::Instance().GetPoint("sstable.write.bitflip");
      if (torn.Fire()) {
        // Torn write: the tail of this write lands as zeros.  Length and
        // file offsets are preserved, so nothing but checksum verification
        // can detect it — the silent-corruption model for NVM power loss.
        mangled.assign(data.data(), data.size());
        const size_t from = static_cast<size_t>(torn.Rand(data.size()));
        std::fill(mangled.begin() + static_cast<ptrdiff_t>(from),
                  mangled.end(), '\0');
        out = Slice(mangled);
      } else if (flip.Fire()) {
        mangled.assign(data.data(), data.size());
        const uint64_t bit = flip.Rand(mangled.size() * 8);
        mangled[bit / 8] ^= static_cast<char>(1u << (bit % 8));
        out = Slice(mangled);
      }
    }
  }
  const char* p = out.data();
  size_t left = out.size();
  while (left > 0) {
    ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path_);
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  offset_ += out.size();
  dev_->ChargeWrite(out.size());
  return Status::OK();
}

Status WritableFile::Sync() {
  // Durability barrier: the device pays one additional write-latency hit.
  if (::fdatasync(fd_) != 0 && errno != EINVAL && errno != ENOTSUP) {
    return Errno("fdatasync", "");
  }
  dev_->ChargeWrite(0);
  return Status::OK();
}

Status WritableFile::Close() {
  if (fd_ >= 0) {
    if (::close(fd_) != 0) {
      fd_ = -1;
      return Errno("close", "");
    }
    fd_ = -1;
  }
  return Status::OK();
}

RandomAccessFile::~RandomAccessFile() {
  if (map_ != nullptr) {
    ::munmap(const_cast<char*>(map_), static_cast<size_t>(map_size_));
  }
  if (fd_ >= 0) ::close(fd_);
}

Status RandomAccessFile::Map() {
  if (map_ != nullptr) return Status::OK();
  struct stat st;
  if (::fstat(fd_, &st) != 0) return Errno("fstat", "");
  // mmap of 0 bytes is EINVAL: an empty file simply has nothing to view.
  if (st.st_size == 0) return Status::OK();
  void* p = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                   MAP_SHARED, fd_, 0);
  if (p == MAP_FAILED) return Errno("mmap", "");
  map_ = static_cast<const char*>(p);
  map_size_ = static_cast<uint64_t>(st.st_size);
  return Status::OK();
}

void RandomAccessFile::View(uint64_t offset, size_t n, Slice* out) const {
  const uint64_t avail = offset < map_size_ ? map_size_ - offset : 0;
  const size_t got = static_cast<size_t>(std::min<uint64_t>(n, avail));
  *out = got > 0 ? Slice(map_ + offset, got) : Slice();
  dev_->ChargeRead(got);
}

Status RandomAccessFile::Read(uint64_t offset, size_t n, char* scratch,
                              Slice* out) const {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::pread(fd_, scratch + got, n - got,
                        static_cast<off_t>(offset + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("pread", "");
    }
    if (r == 0) break;  // EOF
    got += static_cast<size_t>(r);
  }
  *out = Slice(scratch, got);
  dev_->ChargeRead(got);
  return Status::OK();
}

Status Storage::NewWritableFile(const std::string& path,
                                std::unique_ptr<WritableFile>* out) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open(w)", path);
  out->reset(
      new WritableFile(fd, path, DeviceRegistry::Instance().Lookup(path)));
  return Status::OK();
}

Status Storage::NewRandomAccessFile(const std::string& path,
                                    std::unique_ptr<RandomAccessFile>* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Errno("open(r)", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Errno("fstat", path);
  }
  out->reset(new RandomAccessFile(fd, static_cast<uint64_t>(st.st_size),
                                  DeviceRegistry::Instance().Lookup(path)));
  return Status::OK();
}

Status Storage::ReadFileToString(const std::string& path, std::string* out) {
  std::unique_ptr<RandomAccessFile> f;
  Status s = NewRandomAccessFile(path, &f);
  if (!s.ok()) return s;
  out->resize(f->size());
  Slice result;
  s = f->Read(0, f->size(), out->data(), &result);
  if (!s.ok()) return s;
  if (result.size() != f->size()) return Status::IOError("short read " + path);
  return Status::OK();
}

Status Storage::WriteStringToFile(const std::string& path, const Slice& data) {
  std::unique_ptr<WritableFile> f;
  Status s = NewWritableFile(path, &f);
  if (!s.ok()) return s;
  s = f->Append(data);
  if (!s.ok()) return s;
  return f->Close();
}

bool Storage::FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

Status Storage::GetFileSize(const std::string& path, uint64_t* size) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return Errno("stat", path);
  *size = static_cast<uint64_t>(st.st_size);
  return Status::OK();
}

Status Storage::ListDir(const std::string& dir, std::vector<std::string>* out) {
  out->clear();
  DIR* d = ::opendir(dir.c_str());
  if (!d) return Errno("opendir", dir);
  while (struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    out->push_back(std::move(name));
  }
  ::closedir(d);
  std::sort(out->begin(), out->end());
  return Status::OK();
}

Status Storage::RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
  return Status::OK();
}

Status Storage::RemoveDirRecursive(const std::string& dir) {
  std::vector<std::string> entries;
  if (!FileExists(dir)) return Status::OK();
  Status s = ListDir(dir, &entries);
  if (!s.ok()) return s;
  for (const auto& name : entries) {
    std::string path = dir + "/" + name;
    struct stat st;
    if (::lstat(path.c_str(), &st) != 0) return Errno("lstat", path);
    if (S_ISDIR(st.st_mode)) {
      s = RemoveDirRecursive(path);
      if (!s.ok()) return s;
    } else {
      if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
    }
  }
  if (::rmdir(dir.c_str()) != 0) return Errno("rmdir", dir);
  return Status::OK();
}

Status Storage::CreateDirs(const std::string& dir) {
  if (dir.empty()) return Status::InvalidArg("empty dir");
  std::string partial;
  size_t i = 0;
  if (dir[0] == '/') partial = "/";
  while (i < dir.size()) {
    size_t j = dir.find('/', i);
    if (j == std::string::npos) j = dir.size();
    if (j > i) {
      if (!partial.empty() && partial.back() != '/') partial += '/';
      partial += dir.substr(i, j - i);
      if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
        return Errno("mkdir", partial);
      }
    }
    i = j + 1;
  }
  return Status::OK();
}

Status Storage::RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) return Errno("rename", from);
  return Status::OK();
}

Status Storage::CopyFile(const std::string& from, const std::string& to) {
  std::unique_ptr<RandomAccessFile> src;
  Status s = NewRandomAccessFile(from, &src);
  if (!s.ok()) return s;
  std::unique_ptr<WritableFile> dst;
  s = NewWritableFile(to, &dst);
  if (!s.ok()) return s;
  constexpr size_t kChunk = 1 << 20;
  std::string buf(kChunk, '\0');
  uint64_t off = 0;
  while (off < src->size()) {
    size_t n = static_cast<size_t>(
        std::min<uint64_t>(kChunk, src->size() - off));
    Slice got;
    s = src->Read(off, n, buf.data(), &got);
    if (!s.ok()) return s;
    if (got.size() != n) return Status::IOError("short read copying " + from);
    s = dst->Append(got);
    if (!s.ok()) return s;
    off += n;
  }
  return dst->Close();
}

}  // namespace papyrus::sim
