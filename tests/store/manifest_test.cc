#include "store/manifest.h"

#include <gtest/gtest.h>

#include "../util/temp_dir.h"
#include "store/format.h"

namespace papyrus::store {
namespace {

using papyrus::testutil::TempDir;

void BuildSmallTable(const std::string& dir, uint64_t ssid) {
  SSTableBuilder builder(dir, ssid, 2);
  ASSERT_TRUE(builder.Add("a" + std::to_string(ssid), "v", 0).ok());
  ASSERT_TRUE(builder.Add("b" + std::to_string(ssid), "v", 0).ok());
  ASSERT_TRUE(builder.Finish().ok());
}

TEST(ManifestTest, FreshDirectoryStartsEmpty) {
  TempDir tmp;
  Manifest m(tmp.path() + "/rank0");
  ASSERT_TRUE(m.Open().ok());
  EXPECT_EQ(m.TableCount(), 0u);
  EXPECT_EQ(m.LatestSsid(), 0u);
  EXPECT_EQ(m.NextSsid(), 1u);
  EXPECT_EQ(m.NextSsid(), 2u);
}

TEST(ManifestTest, RecoversLiveSsidsFromDirectory) {
  // The zero-copy reopen path (§4.1): state is rebuilt purely by scanning.
  TempDir tmp;
  for (uint64_t ssid : {1, 2, 5}) BuildSmallTable(tmp.path(), ssid);

  Manifest m(tmp.path());
  ASSERT_TRUE(m.Open().ok());
  EXPECT_EQ(m.TableCount(), 3u);
  EXPECT_EQ(m.LatestSsid(), 5u);
  EXPECT_EQ(m.NextSsid(), 6u);  // continues above the highest recovered

  const auto live = m.LiveSsids();
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(live[0], 5u);  // descending: newest first
  EXPECT_EQ(live[1], 2u);
  EXPECT_EQ(live[2], 1u);
}

TEST(ManifestTest, IgnoresForeignFiles) {
  TempDir tmp;
  BuildSmallTable(tmp.path(), 1);
  ASSERT_TRUE(
      sim::Storage::WriteStringToFile(tmp.path() + "/notes.txt", "x").ok());
  ASSERT_TRUE(
      sim::Storage::WriteStringToFile(tmp.path() + "/sst_zz.data", "x").ok());
  Manifest m(tmp.path());
  ASSERT_TRUE(m.Open().ok());
  EXPECT_EQ(m.TableCount(), 1u);
}

TEST(ManifestTest, GetReaderCachesAndValidates) {
  TempDir tmp;
  BuildSmallTable(tmp.path(), 1);
  Manifest m(tmp.path());
  ASSERT_TRUE(m.Open().ok());

  SSTablePtr r1, r2;
  ASSERT_TRUE(m.GetReader(1, &r1).ok());
  ASSERT_TRUE(m.GetReader(1, &r2).ok());
  EXPECT_EQ(r1.get(), r2.get());  // cached

  SSTablePtr r3;
  EXPECT_TRUE(m.GetReader(99, &r3).IsNotFound());
}

TEST(ManifestTest, ReplaceTablesCommitsAndDeletesFiles) {
  TempDir tmp;
  for (uint64_t ssid : {1, 2}) BuildSmallTable(tmp.path(), ssid);
  Manifest m(tmp.path());
  ASSERT_TRUE(m.Open().ok());
  BuildSmallTable(tmp.path(), 3);  // the "merged" output

  ASSERT_TRUE(m.ReplaceTables({1, 2}, {3}).ok());
  EXPECT_EQ(m.TableCount(), 1u);
  EXPECT_EQ(m.LatestSsid(), 3u);
  EXPECT_FALSE(sim::Storage::FileExists(tmp.path() + "/" + SsDataName(1)));
  EXPECT_FALSE(sim::Storage::FileExists(tmp.path() + "/" + SsIndexName(2)));
  EXPECT_TRUE(sim::Storage::FileExists(tmp.path() + "/" + SsDataName(3)));
}

TEST(ManifestTest, OpenForeignReadsAnotherDir) {
  TempDir tmp;
  BuildSmallTable(tmp.path(), 4);
  SSTablePtr reader;
  ASSERT_TRUE(Manifest::OpenForeign(tmp.path(), 4, &reader).ok());
  EXPECT_EQ(reader->count(), 2u);
  EXPECT_TRUE(Manifest::OpenForeign(tmp.path(), 5, &reader).IsNotFound());
}

TEST(ManifestTest, RepairReplacesFilesAndSparesOpenReaders) {
  TempDir live, snap{"manifest_snap"};
  BuildSmallTable(live.path(), 1);
  ASSERT_TRUE(CopySSTable(live.path(), snap.path(), 1).ok());  // checkpoint
  // Corrupt a1's value ("v", right after the 13-byte header and the key).
  const std::string data_path = live.path() + "/" + SsDataName(1);
  std::string raw;
  ASSERT_TRUE(sim::Storage::ReadFileToString(data_path, &raw).ok());
  raw[kRecordHeaderSize + 2] ^= 0x20;
  ASSERT_TRUE(sim::Storage::WriteStringToFile(data_path, raw).ok());

  Manifest m(live.path());
  ASSERT_TRUE(m.Open().ok());
  SSTablePtr before;
  ASSERT_TRUE(m.GetReader(1, &before).ok());
  std::string value;
  bool tomb, found;
  ASSERT_EQ(before->Get("a1", SearchMode::kBinary, &value, &tomb, &found)
                .code(),
            PAPYRUSKV_CORRUPTED);  // loads the index and maps SSData

  m.SetRepairDir(snap.path());
  ASSERT_TRUE(m.RepairTable(1).ok());

  // The reader opened before the repair keeps its own (corrupt) image: the
  // repair renamed new files into place rather than rewriting the mapped
  // one.  It answers with statuses, never a fault.
  EXPECT_EQ(before->Get("a1", SearchMode::kBinary, &value, &tomb, &found)
                .code(),
            PAPYRUSKV_CORRUPTED);
  ASSERT_TRUE(
      before->Get("b1", SearchMode::kBinary, &value, &tomb, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(value, "v");

  SSTablePtr after;
  ASSERT_TRUE(m.GetReader(1, &after).ok());
  EXPECT_NE(after.get(), before.get());
  ASSERT_TRUE(
      after->Get("a1", SearchMode::kBinary, &value, &tomb, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(value, "v");

  std::vector<std::string> names;
  ASSERT_TRUE(sim::Storage::ListDir(live.path(), &names).ok());
  EXPECT_EQ(names.size(), 3u);  // no staging leftovers
}

}  // namespace
}  // namespace papyrus::store
