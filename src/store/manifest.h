// Manifest: one rank's catalog of live SSTables for one database.
//
// Tracks the set of live SSIDs, allocates the next SSID (per-database,
// per-rank, unique, increasing, starting at one — paper §2.4), and caches
// open SSTableReaders.  On open it recovers state by scanning the rank's
// directory for sst_<ssid>.data files — this is what makes the zero-copy
// workflow (§4.1) work: a new application run re-composes the database
// purely from the SSTables retained on NVM, no data movement.
//
// Thread safety: the get path snapshots the table list (newest first) under
// a shared lock while the compaction thread installs flush results and
// compaction replacements under an exclusive lock.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "store/sstable.h"

namespace papyrus::store {

class Manifest {
 public:
  explicit Manifest(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }

  // Creates the directory if needed and recovers live SSIDs from it.
  Status Open();

  // Allocates the next SSID (monotonic, never reused within a run).
  uint64_t NextSsid();

  // Registers a freshly built SSTable.
  void AddTable(uint64_t ssid);

  // Atomically replaces `removed` with `added` (compaction commit), then
  // deletes the removed tables' files.
  Status ReplaceTables(const std::vector<uint64_t>& removed,
                       const std::vector<uint64_t>& added);

  // Live SSIDs, descending (newest first — the paper's search order).
  std::vector<uint64_t> LiveSsids() const;

  // Highest SSID that has been flushed and registered, 0 if none.  Sent in
  // storage-group get responses (§2.7).
  uint64_t LatestSsid() const;

  size_t TableCount() const;

  // Opens (or returns the cached) reader for ssid.  NOT_FOUND if the table
  // is not live; CORRUPTED if it is quarantined (see below).
  Status GetReader(uint64_t ssid, SSTablePtr* out);

  // ---- Corruption recovery (DESIGN.md §8) ----
  // Remembers the directory holding this rank's latest checkpoint copy of
  // its SSTables.  RepairTable restores corrupt tables from here; set by
  // checkpoint (after the copies land) and restart (the snapshot itself).
  void SetRepairDir(const std::string& dir);
  // Restores sst_<ssid>.* from the repair directory, renaming the copies
  // over the live files (CopySSTable; never rewritten in place), and drops the cached reader so the next read re-opens the repaired
  // image; also lifts any quarantine.  NOT_FOUND when no repair source
  // covers the table (no checkpoint taken, or table newer than it).
  Status RepairTable(uint64_t ssid);
  // Marks a table unreadable: GetReader fails fast with CORRUPTED until
  // the table is repaired or compacted away, instead of re-parsing corrupt
  // blocks on every probe.
  void Quarantine(uint64_t ssid);
  bool IsQuarantined(uint64_t ssid) const;

  // Opens a reader for a table owned by *another* rank's directory without
  // registering it (storage-group shared reads).  Failures to open a
  // vanished table (compacted away) surface as NOT_FOUND.
  static Status OpenForeign(const std::string& dir, uint64_t ssid,
                            SSTablePtr* out);

  // Lists the SSIDs present in another rank's directory, descending (newest
  // first), without opening or registering anything.  Used by failover
  // promotion to adopt a dead rank's on-NVM image (§2.7 shared storage
  // makes the files directly readable).
  static Status ListSsids(const std::string& dir, std::vector<uint64_t>* out);

 private:
  std::string dir_;
  // Leaf lock: guards the catalog; file deletion in ReplaceTables happens
  // after it is released.
  mutable SharedMutex mu_{"manifest_mu"};
  std::vector<uint64_t> live_ GUARDED_BY(mu_);  // ascending
  std::unordered_map<uint64_t, SSTablePtr> readers_ GUARDED_BY(mu_);
  uint64_t next_ssid_ GUARDED_BY(mu_) = 1;
  // Corruption-recovery state (DESIGN.md §8).
  std::string repair_dir_ GUARDED_BY(mu_);
  std::set<uint64_t> quarantined_ GUARDED_BY(mu_);
};

}  // namespace papyrus::store
