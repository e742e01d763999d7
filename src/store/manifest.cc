#include "store/manifest.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "sim/storage.h"
#include "store/format.h"

namespace papyrus::store {

Status Manifest::Open() {
  Status s = sim::Storage::CreateDirs(dir_);
  if (!s.ok()) return s;
  std::vector<std::string> entries;
  s = sim::Storage::ListDir(dir_, &entries);
  if (!s.ok()) return s;

  WriterMutexLock lock(&mu_);
  live_.clear();
  for (const auto& name : entries) {
    // Recover from sst_<ssid>.data (the file published last by the
    // builder, so its presence implies a complete table).
    if (name.rfind("sst_", 0) == 0 && name.size() > 9 &&
        name.compare(name.size() - 5, 5, ".data") == 0) {
      const std::string num = name.substr(4, name.size() - 9);
      char* end = nullptr;
      const uint64_t ssid = strtoull(num.c_str(), &end, 10);
      if (end && *end == '\0' && ssid > 0) live_.push_back(ssid);
    }
  }
  std::sort(live_.begin(), live_.end());
  next_ssid_ = live_.empty() ? 1 : live_.back() + 1;
  return Status::OK();
}

Status Manifest::ListSsids(const std::string& dir,
                           std::vector<uint64_t>* out) {
  out->clear();
  std::vector<std::string> entries;
  Status s = sim::Storage::ListDir(dir, &entries);
  if (!s.ok()) return s;
  for (const auto& name : entries) {
    if (name.rfind("sst_", 0) == 0 && name.size() > 9 &&
        name.compare(name.size() - 5, 5, ".data") == 0) {
      const std::string num = name.substr(4, name.size() - 9);
      char* end = nullptr;
      const uint64_t ssid = strtoull(num.c_str(), &end, 10);
      if (end && *end == '\0' && ssid > 0) out->push_back(ssid);
    }
  }
  std::sort(out->rbegin(), out->rend());
  return Status::OK();
}

uint64_t Manifest::NextSsid() {
  WriterMutexLock lock(&mu_);
  return next_ssid_++;
}

void Manifest::AddTable(uint64_t ssid) {
  WriterMutexLock lock(&mu_);
  live_.push_back(ssid);
  std::sort(live_.begin(), live_.end());
}

Status Manifest::ReplaceTables(const std::vector<uint64_t>& removed,
                               const std::vector<uint64_t>& added) {
  {
    WriterMutexLock lock(&mu_);
    for (uint64_t ssid : removed) {
      live_.erase(std::remove(live_.begin(), live_.end(), ssid), live_.end());
      readers_.erase(ssid);
    }
    for (uint64_t ssid : added) live_.push_back(ssid);
    std::sort(live_.begin(), live_.end());
  }
  // Delete old files outside the lock; open readers keep their fds valid.
  Status first_err = Status::OK();
  for (uint64_t ssid : removed) {
    for (const auto& name :
         {SsDataName(ssid), SsIndexName(ssid), BloomName(ssid)}) {
      Status s = sim::Storage::RemoveFile(dir_ + "/" + name);
      if (!s.ok() && first_err.ok()) first_err = s;
    }
  }
  return first_err;
}

std::vector<uint64_t> Manifest::LiveSsids() const {
  ReaderMutexLock lock(&mu_);
  std::vector<uint64_t> out(live_.rbegin(), live_.rend());
  return out;
}

uint64_t Manifest::LatestSsid() const {
  ReaderMutexLock lock(&mu_);
  return live_.empty() ? 0 : live_.back();
}

size_t Manifest::TableCount() const {
  ReaderMutexLock lock(&mu_);
  return live_.size();
}

void Manifest::SetRepairDir(const std::string& dir) {
  WriterMutexLock lock(&mu_);
  repair_dir_ = dir;
}

Status Manifest::RepairTable(uint64_t ssid) {
  obs::Current().GetCounter("store.repair.attempts").Inc();
  std::string src;
  {
    ReaderMutexLock lock(&mu_);
    src = repair_dir_;
  }
  if (src.empty() || !sim::Storage::FileExists(src + "/" + SsDataName(ssid))) {
    return Status::NotFound("no checkpoint copy to repair from");
  }
  // Replaced by rename: readers still holding the corrupt image (and its
  // mapping) get checksum errors from it, never a fault.
  Status s = CopySSTable(src, dir_, ssid);
  if (!s.ok()) return s;
  {
    WriterMutexLock lock(&mu_);
    readers_.erase(ssid);  // force a re-open of the repaired image
    quarantined_.erase(ssid);
  }
  obs::Current().GetCounter("store.repair.success").Inc();
  return Status::OK();
}

void Manifest::Quarantine(uint64_t ssid) {
  {
    WriterMutexLock lock(&mu_);
    if (!quarantined_.insert(ssid).second) return;  // already quarantined
  }
  // A quarantined table means unrepairable corruption: leave a post-mortem
  // window naming the table alongside the reads that hit it.
  if (auto* flight = obs::CurrentFlight()) {
    flight->Record(obs::FlightKind::kQuarantine, "sstable",
                   static_cast<int64_t>(ssid));
    Status s = flight->TriggerDump("sstable quarantined");
    if (!s.ok()) {
      PLOG_WARN << "flight dump (quarantine) failed: " << s.ToString();
    }
  }
}

bool Manifest::IsQuarantined(uint64_t ssid) const {
  ReaderMutexLock lock(&mu_);
  return quarantined_.count(ssid) != 0;
}

Status Manifest::GetReader(uint64_t ssid, SSTablePtr* out) {
  {
    ReaderMutexLock lock(&mu_);
    if (quarantined_.count(ssid) != 0) {
      return Status::Corrupted("sstable quarantined");
    }
    auto it = readers_.find(ssid);
    if (it != readers_.end()) {
      *out = it->second;
      return Status::OK();
    }
    if (std::find(live_.begin(), live_.end(), ssid) == live_.end()) {
      return Status::NotFound("ssid not live");
    }
  }
  SSTablePtr reader;
  Status s = SSTableReader::Open(dir_, ssid, &reader);
  if (!s.ok()) return s;
  WriterMutexLock lock(&mu_);
  auto [it, inserted] = readers_.emplace(ssid, reader);
  *out = it->second;
  return Status::OK();
}

Status Manifest::OpenForeign(const std::string& dir, uint64_t ssid,
                             SSTablePtr* out) {
  if (!sim::Storage::FileExists(dir + "/" + SsDataName(ssid))) {
    return Status::NotFound("foreign sstable absent");
  }
  Status s = SSTableReader::Open(dir, ssid, out);
  if (!s.ok() && !sim::Storage::FileExists(dir + "/" + SsDataName(ssid))) {
    // The owner compacted the table away between our existence check and
    // the open — a benign race; callers fall back to asking the owner.
    return Status::NotFound("foreign sstable deleted concurrently");
  }
  return s;
}

}  // namespace papyrus::store
