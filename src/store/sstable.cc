#include "store/sstable.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"
#include "common/crc32.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace papyrus::store {

SSTableBuilder::SSTableBuilder(std::string dir, uint64_t ssid,
                               size_t expected_keys, int bloom_bits_per_key)
    : dir_(std::move(dir)),
      ssid_(ssid),
      bloom_(expected_keys, bloom_bits_per_key) {
  open_status_ =
      sim::Storage::NewWritableFile(dir_ + "/" + SsDataName(ssid_) + ".tmp",
                                    &data_file_);
}

Status SSTableBuilder::Add(const Slice& key, const Slice& value,
                           uint8_t flags) {
  if (!open_status_.ok()) return open_status_;
  assert(!finished_);
  if (!last_key_.empty() || !index_.empty()) {
    if (Slice(last_key_).compare(key) >= 0) {
      return Status::InvalidArg("SSTable keys must be strictly ascending");
    }
  }
  last_key_ = key.ToString();

  // Record: [crc][keylen][vallen][flags][key][value]
  std::string rec;
  rec.reserve(kRecordHeaderSize + key.size() + value.size());
  PutFixed32(&rec, 0);  // crc placeholder
  PutFixed32(&rec, static_cast<uint32_t>(key.size()));
  PutFixed32(&rec, static_cast<uint32_t>(value.size()));
  rec.push_back(static_cast<char>(flags));
  rec.append(key.data(), key.size());
  rec.append(value.data(), value.size());
  EncodeFixed32(rec.data(),
                MaskCrc(Crc32c(rec.data() + 4, rec.size() - 4)));

  IndexEntry e;
  e.data_offset = data_offset_;
  e.keylen = static_cast<uint32_t>(key.size());
  e.vallen = static_cast<uint32_t>(value.size());
  e.flags = flags;
  index_.push_back(e);
  bloom_.Add(key);

  Status s = data_file_->Append(rec);
  if (!s.ok()) return s;
  data_offset_ += rec.size();
  return Status::OK();
}

Status SSTableBuilder::Finish() {
  if (!open_status_.ok()) return open_status_;
  assert(!finished_);
  finished_ = true;

  Status s = data_file_->Sync();
  if (!s.ok()) return s;
  s = data_file_->Close();
  if (!s.ok()) return s;

  // SSIndex.
  std::string idx;
  idx.reserve(16 + index_.size() * kIndexEntrySize + 4);
  PutFixed32(&idx, kSsIndexMagic);
  PutFixed32(&idx, 0);
  PutFixed64(&idx, index_.size());
  for (const IndexEntry& e : index_) {
    PutFixed64(&idx, e.data_offset);
    PutFixed32(&idx, e.keylen);
    PutFixed32(&idx, e.vallen);
    idx.push_back(static_cast<char>(e.flags));
  }
  PutFixed32(&idx, MaskCrc(Crc32c(idx.data(), idx.size())));
  s = sim::Storage::WriteStringToFile(dir_ + "/" + SsIndexName(ssid_) + ".tmp",
                                      idx);
  if (!s.ok()) return s;

  // Bloom.
  s = sim::Storage::WriteStringToFile(dir_ + "/" + BloomName(ssid_) + ".tmp",
                                      bloom_.Serialize());
  if (!s.ok()) return s;

  // Publish atomically: data last, since readers discover tables by the
  // presence of the data file's final name.
  for (const auto& name :
       {SsIndexName(ssid_), BloomName(ssid_), SsDataName(ssid_)}) {
    s = sim::Storage::RenameFile(dir_ + "/" + name + ".tmp",
                                 dir_ + "/" + name);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status FlushMemTable(const std::string& dir, uint64_t ssid,
                     const MemTable& mem, int bloom_bits_per_key) {
  obs::Registry& reg = obs::Current();
  obs::ScopedLatency lat(&reg.GetHistogram("store.flush_us"));
  obs::TraceSpan span("store", "flush");
  reg.GetCounter("store.flush_bytes").Inc(mem.ApproxBytes());
  reg.GetCounter("store.flush_entries").Inc(mem.Count());
  SSTableBuilder builder(dir, ssid, mem.Count(), bloom_bits_per_key);
  Status result = Status::OK();
  mem.ForEachSorted([&](const Slice& key, const MemTable::Entry& e) {
    if (!result.ok()) return;
    result = builder.Add(key, e.value, e.tombstone ? kFlagTombstone : 0);
  });
  if (!result.ok()) return result;
  return builder.Finish();
}

Status CopySSTable(const std::string& from_dir, const std::string& to_dir,
                   uint64_t ssid) {
  const std::string names[] = {SsIndexName(ssid), BloomName(ssid),
                               SsDataName(ssid)};
  for (const auto& name : names) {
    Status s = sim::Storage::CopyFile(from_dir + "/" + name,
                                      to_dir + "/" + name + ".tmp");
    if (!s.ok()) return s;
  }
  for (const auto& name : names) {
    Status s = sim::Storage::RenameFile(to_dir + "/" + name + ".tmp",
                                        to_dir + "/" + name);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status SSTableReader::Open(const std::string& dir, uint64_t ssid,
                           std::shared_ptr<SSTableReader>* out) {
  auto reader = std::shared_ptr<SSTableReader>(new SSTableReader(dir, ssid));

  // Paper order: the bloom filter file is opened first, to decide whether
  // the rest of the table can be skipped.
  std::string bloom_bytes;
  Status s = sim::Storage::ReadFileToString(dir + "/" + BloomName(ssid),
                                            &bloom_bytes);
  if (!s.ok()) return s;
  s = BloomFilter::Parse(bloom_bytes, &reader->bloom_);
  if (!s.ok()) return s;

  s = sim::Storage::NewRandomAccessFile(dir + "/" + SsDataName(ssid),
                                        &reader->data_file_);
  if (!s.ok()) return s;

  *out = std::move(reader);
  return Status::OK();
}

size_t SSTableReader::count() {
  if (!EnsureIndexLoaded().ok()) return 0;
  return index_.size();
}

Status SSTableReader::EnsureIndexLoaded() {
  // Fast path: already published (acquire pairs with the release below).
  if (index_ready_.load(std::memory_order_acquire)) return Status::OK();
  MutexLock lock(&index_mu_);
  if (index_ready_.load(std::memory_order_relaxed)) return Status::OK();

  std::string idx;
  Status s = sim::Storage::ReadFileToString(dir_ + "/" + SsIndexName(ssid_),
                                            &idx);
  if (!s.ok()) return s;
  if (idx.size() < 20) return Status::Corrupted("ssindex too small");
  const uint32_t stored =
      UnmaskCrc(DecodeFixed32(idx.data() + idx.size() - 4));
  if (Crc32c(idx.data(), idx.size() - 4) != stored) {
    return Status::Corrupted("ssindex crc mismatch");
  }
  Slice in(idx.data(), idx.size() - 4);
  uint32_t magic = 0, reserved = 0;
  uint64_t count = 0;
  GetFixed32(&in, &magic);
  GetFixed32(&in, &reserved);
  GetFixed64(&in, &count);
  if (magic != kSsIndexMagic) return Status::Corrupted("ssindex bad magic");
  if (in.size() != count * kIndexEntrySize) {
    return Status::Corrupted("ssindex size mismatch");
  }
  std::vector<IndexEntry> parsed(count);
  for (uint64_t i = 0; i < count; ++i) {
    IndexEntry& e = parsed[i];
    GetFixed64(&in, &e.data_offset);
    GetFixed32(&in, &e.keylen);
    GetFixed32(&in, &e.vallen);
    e.flags = static_cast<uint8_t>(in[0]);
    in.remove_prefix(1);
  }
  // SSData is mapped with the index, so tables the bloom filter skips
  // never map anything.  A failed map fails the load like a failed index
  // read; the next call retries.
  s = data_file_->Map();
  if (!s.ok()) return s;
  // analyze:allow-guarded-by: publish-once — index_mu_ serializes only
  // this load; after the release-store below index_ is immutable and read
  // lock-free, so GUARDED_BY(index_mu_) would misdescribe the protocol.
  index_ = std::move(parsed);
  // Publish: readers that acquire-load index_ready_ == true see the fully
  // constructed vector; index_ is never written again.
  index_ready_.store(true, std::memory_order_release);
  return Status::OK();
}

namespace {

// Verifies the CRC of `rec`, the bytes read for entry e, and copies out its
// key and value (either may be null).
Status DecodeRecord(const IndexEntry& e, const Slice& rec, std::string* key,
                    std::string* value) {
  if (rec.size() != e.record_size()) {
    return Status::Corrupted("record truncated");
  }
  const uint32_t stored = UnmaskCrc(DecodeFixed32(rec.data()));
  if (Crc32c(rec.data() + 4, rec.size() - 4) != stored) {
    return Status::Corrupted("record crc mismatch");
  }
  if (key) key->assign(rec.data() + kRecordHeaderSize, e.keylen);
  if (value) {
    value->assign(rec.data() + kRecordHeaderSize + e.keylen, e.vallen);
  }
  return Status::OK();
}

}  // namespace

Status SSTableReader::CompareAt(const IndexEntry& e, const Slice& key,
                                int* cmp) const {
  Slice probe;
  data_file_->View(e.key_offset(), e.keylen, &probe);
  if (probe.size() != e.keylen) return Status::Corrupted("key truncated");
  *cmp = probe.compare(key);
  return Status::OK();
}

Status SSTableReader::Get(const Slice& key, SearchMode mode,
                          std::string* value, bool* tombstone, bool* found) {
  *found = false;
  Status s = EnsureIndexLoaded();
  if (!s.ok()) return s;

  // Both strategies compare key bytes in place in the mapped SSData and
  // charge the device for each probe as a read of the key.
  const size_t n = index_.size();
  size_t hit = n;
  int cmp = 0;
  if (mode == SearchMode::kLinear) {
    // Sequential scan in file order, stopping as soon as we pass the
    // sorted position of the key.  Cost: O(n) sequential reads — the
    // disk-era strategy the binary search optimization replaces.
    for (size_t i = 0; i < n; ++i) {
      s = CompareAt(index_[i], key, &cmp);
      if (!s.ok()) return s;
      if (cmp >= 0) {
        if (cmp == 0) hit = i;
        break;
      }
    }
  } else {
    // Binary search over the in-memory index; each probe random-reads
    // one key from SSData — fast on NVM (paper §2.6 "Binary search").
    size_t lo = 0, hi = n;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      s = CompareAt(index_[mid], key, &cmp);
      if (!s.ok()) return s;
      if (cmp == 0) {
        hit = mid;
        break;
      }
      if (cmp < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
  }
  if (hit == n) return Status::OK();

  const IndexEntry& e = index_[hit];
  *found = true;
  if (tombstone) *tombstone = e.tombstone();
  if (!value) return Status::OK();
  Slice rec;
  data_file_->View(e.data_offset, static_cast<size_t>(e.record_size()), &rec);
  return DecodeRecord(e, rec, nullptr, value);
}

Status SSTableReader::ReadEntry(size_t i, std::string* key,
                                std::string* value, uint8_t* flags) {
  Status s = EnsureIndexLoaded();
  if (!s.ok()) return s;
  if (i >= index_.size()) return Status::InvalidArg("entry index out of range");
  // Bulk readers stay on pread: every mapped page they touched would count
  // toward the process's resident set once per open reader.
  const IndexEntry& e = index_[i];
  if (flags) *flags = e.flags;
  std::string buf(static_cast<size_t>(e.record_size()), '\0');
  Slice rec;
  s = data_file_->Read(e.data_offset, buf.size(), buf.data(), &rec);
  if (!s.ok()) return s;
  return DecodeRecord(e, rec, key, value);
}

}  // namespace papyrus::store
