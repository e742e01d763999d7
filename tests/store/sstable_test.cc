#include "store/sstable.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "../util/temp_dir.h"
#include "common/random.h"
#include "store/format.h"

namespace papyrus::store {
namespace {

using papyrus::testutil::TempDir;

// Builds an SSTable with `n` deterministic sorted entries; returns key→value.
std::map<std::string, std::string> BuildTable(const std::string& dir,
                                              uint64_t ssid, int n,
                                              int tomb_every = 0) {
  std::map<std::string, std::string> data;
  for (int i = 0; i < n; ++i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    data[buf] = PatternValue(static_cast<uint64_t>(i), 40);
  }
  SSTableBuilder builder(dir, ssid, data.size());
  int i = 0;
  for (const auto& [k, v] : data) {
    const bool tomb = tomb_every > 0 && (i % tomb_every) == 0;
    EXPECT_TRUE(builder.Add(k, tomb ? "" : v, tomb ? kFlagTombstone : 0).ok());
    ++i;
  }
  EXPECT_TRUE(builder.Finish().ok());
  return data;
}

class SSTableTest : public ::testing::TestWithParam<SearchMode> {};

TEST_P(SSTableTest, WriteThenGetEveryKey) {
  TempDir tmp;
  auto data = BuildTable(tmp.path(), 1, 500);
  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  EXPECT_EQ(reader->count(), 500u);
  for (const auto& [k, v] : data) {
    std::string value;
    bool tomb = true;
    bool found = false;
    ASSERT_TRUE(reader->Get(k, GetParam(), &value, &tomb, &found).ok());
    EXPECT_TRUE(found) << k;
    EXPECT_FALSE(tomb);
    EXPECT_EQ(value, v);
  }
}

TEST_P(SSTableTest, MissingKeysNotFound) {
  TempDir tmp;
  BuildTable(tmp.path(), 1, 100);
  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  for (const char* k : {"aaa", "key000050x", "key999999", "zzz"}) {
    std::string value;
    bool tomb;
    bool found = true;
    ASSERT_TRUE(reader->Get(k, GetParam(), &value, &tomb, &found).ok());
    EXPECT_FALSE(found) << k;
  }
}

TEST_P(SSTableTest, TombstonesSurfaceAsFoundDeleted) {
  TempDir tmp;
  BuildTable(tmp.path(), 1, 50, /*tomb_every=*/5);
  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  std::string value;
  bool tomb = false;
  bool found = false;
  ASSERT_TRUE(reader->Get("key000000", GetParam(), &value, &tomb, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_TRUE(tomb);
  ASSERT_TRUE(reader->Get("key000001", GetParam(), &value, &tomb, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_FALSE(tomb);
}

INSTANTIATE_TEST_SUITE_P(Modes, SSTableTest,
                         ::testing::Values(SearchMode::kLinear,
                                           SearchMode::kBinary),
                         [](const auto& info) {
                           return info.param == SearchMode::kLinear
                                      ? "Linear"
                                      : "Binary";
                         });

TEST(SSTableFormatTest, ThreeFilesPublished) {
  TempDir tmp;
  BuildTable(tmp.path(), 7, 10);
  EXPECT_TRUE(sim::Storage::FileExists(tmp.path() + "/" + SsDataName(7)));
  EXPECT_TRUE(sim::Storage::FileExists(tmp.path() + "/" + SsIndexName(7)));
  EXPECT_TRUE(sim::Storage::FileExists(tmp.path() + "/" + BloomName(7)));
  // No stray temporaries.
  std::vector<std::string> names;
  ASSERT_TRUE(sim::Storage::ListDir(tmp.path(), &names).ok());
  EXPECT_EQ(names.size(), 3u);
}

TEST(SSTableFormatTest, BuilderRejectsUnsortedKeys) {
  TempDir tmp;
  SSTableBuilder builder(tmp.path(), 1, 10);
  ASSERT_TRUE(builder.Add("b", "v", 0).ok());
  EXPECT_EQ(builder.Add("a", "v", 0).code(), PAPYRUSKV_INVALID_ARG);
  EXPECT_EQ(builder.Add("b", "v", 0).code(), PAPYRUSKV_INVALID_ARG);  // dup
  ASSERT_TRUE(builder.Add("c", "v", 0).ok());
  ASSERT_TRUE(builder.Finish().ok());
}

TEST(SSTableFormatTest, ReadEntrySequential) {
  TempDir tmp;
  auto data = BuildTable(tmp.path(), 1, 64);
  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  auto it = data.begin();
  for (size_t i = 0; i < reader->count(); ++i, ++it) {
    std::string key, value;
    uint8_t flags = 0;
    ASSERT_TRUE(reader->ReadEntry(i, &key, &value, &flags).ok());
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(value, it->second);
    EXPECT_EQ(flags, 0);
  }
  std::string k, v;
  EXPECT_EQ(reader->ReadEntry(reader->count(), &k, &v, nullptr).code(),
            PAPYRUSKV_INVALID_ARG);
}

TEST(SSTableFormatTest, BloomSkipsAbsentKeys) {
  TempDir tmp;
  BuildTable(tmp.path(), 1, 200);
  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  // Every stored key must pass the filter.
  for (int i = 0; i < 200; ++i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    EXPECT_TRUE(reader->MayContain(buf));
  }
  // Most absent keys must be rejected without touching SSData.
  Rng rng(5);
  int pass = 0;
  for (int i = 0; i < 1000; ++i) {
    if (reader->MayContain(RandomKey(rng, 16))) ++pass;
  }
  EXPECT_LT(pass, 100);
}

TEST(SSTableFormatTest, CorruptedRecordDetected) {
  TempDir tmp;
  BuildTable(tmp.path(), 1, 20);
  // Flip a byte inside the first record's value region.
  const std::string data_path = tmp.path() + "/" + SsDataName(1);
  std::string raw;
  ASSERT_TRUE(sim::Storage::ReadFileToString(data_path, &raw).ok());
  raw[kRecordHeaderSize + 12] ^= 0x7f;
  ASSERT_TRUE(sim::Storage::WriteStringToFile(data_path, raw).ok());

  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  std::string key, value;
  EXPECT_EQ(reader->ReadEntry(0, &key, &value, nullptr).code(),
            PAPYRUSKV_CORRUPTED);
}

TEST(SSTableFormatTest, CorruptedIndexDetected) {
  TempDir tmp;
  BuildTable(tmp.path(), 1, 20);
  const std::string idx_path = tmp.path() + "/" + SsIndexName(1);
  std::string raw;
  ASSERT_TRUE(sim::Storage::ReadFileToString(idx_path, &raw).ok());
  raw[16] ^= 0x01;
  ASSERT_TRUE(sim::Storage::WriteStringToFile(idx_path, raw).ok());

  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  std::string value;
  bool tomb, found;
  EXPECT_EQ(
      reader->Get("key000000", SearchMode::kBinary, &value, &tomb, &found)
          .code(),
      PAPYRUSKV_CORRUPTED);
}

// Gets of every key in both modes; returns how many came back CORRUPTED
// (the rest must succeed with the right value).
int CountCorruptedGets(const SSTablePtr& reader,
                       const std::map<std::string, std::string>& data) {
  int corrupted = 0;
  for (SearchMode mode : {SearchMode::kBinary, SearchMode::kLinear}) {
    for (const auto& [k, v] : data) {
      std::string value;
      bool tomb, found;
      Status s = reader->Get(k, mode, &value, &tomb, &found);
      if (s.code() == PAPYRUSKV_CORRUPTED) {
        ++corrupted;
        continue;
      }
      EXPECT_TRUE(s.ok()) << k << ": " << s.ToString();
      EXPECT_TRUE(found) << k;
      EXPECT_EQ(value, v) << k;
    }
  }
  return corrupted;
}

TEST(SSTableFormatTest, DataShorterThanIndexIsCorruptNotOverread) {
  // SSData truncated before Open: the mapping ends where the file does, and
  // probes of the records past it report corruption instead of reading
  // beyond the mapping.  Last record: 13-byte header, 9-byte key, 40-byte
  // value.
  constexpr uint64_t kLastRecord = kRecordHeaderSize + 9 + 40;
  // Cut inside the value, then inside the key.
  for (const uint64_t cut :
       {uint64_t{10}, kLastRecord - kRecordHeaderSize - 3}) {
    TempDir tmp;
    auto data = BuildTable(tmp.path(), 1, 20);
    const std::string data_path = tmp.path() + "/" + SsDataName(1);
    const uint64_t full = std::filesystem::file_size(data_path);
    std::filesystem::resize_file(data_path, full - cut);

    SSTablePtr reader;
    ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
    std::string value;
    bool tomb, found;
    for (SearchMode mode : {SearchMode::kBinary, SearchMode::kLinear}) {
      EXPECT_EQ(reader->Get(data.rbegin()->first, mode, &value, &tomb, &found)
                    .code(),
                PAPYRUSKV_CORRUPTED)
          << "cut " << cut;
    }
    // No other key's search probes the last record, so every other get
    // still succeeds.
    EXPECT_EQ(CountCorruptedGets(reader, data), 2) << "cut " << cut;
  }
}

TEST(SSTableFormatTest, ZeroLengthDataMapsNothingAndFails) {
  TempDir tmp;
  auto data = BuildTable(tmp.path(), 1, 5);
  std::filesystem::resize_file(tmp.path() + "/" + SsDataName(1), 0);
  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  EXPECT_EQ(reader->count(), 5u);  // the index itself is intact
  EXPECT_EQ(CountCorruptedGets(reader, data), 2 * 5);
}

TEST(SSTableFormatTest, EmptyTableMapsNothingAndMisses) {
  TempDir tmp;
  SSTableBuilder builder(tmp.path(), 1, 1);
  ASSERT_TRUE(builder.Finish().ok());
  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  EXPECT_EQ(reader->count(), 0u);
  std::string value;
  bool tomb, found = true;
  ASSERT_TRUE(reader->Get("k", SearchMode::kBinary, &value, &tomb, &found).ok());
  EXPECT_FALSE(found);
}

TEST(SSTableFormatTest, FlushMemTableRoundTrip) {
  TempDir tmp;
  MemTable mem(MemTable::Kind::kLocal, 1 << 20);
  Rng rng(30);
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 300; ++i) {
    const std::string k = RandomKey(rng, 16);
    const std::string v = PatternValue(i, 64);
    ref[k] = v;
    mem.Put(k, v, false, 0);
  }
  mem.Seal();
  ASSERT_TRUE(FlushMemTable(tmp.path(), 3, mem).ok());

  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 3, &reader).ok());
  EXPECT_EQ(reader->count(), ref.size());
  for (const auto& [k, v] : ref) {
    std::string value;
    bool tomb, found;
    ASSERT_TRUE(
        reader->Get(k, SearchMode::kBinary, &value, &tomb, &found).ok());
    EXPECT_TRUE(found);
    EXPECT_EQ(value, v);
  }
}

TEST(SSTableFormatTest, EmptyValueAndBinaryKeys) {
  TempDir tmp;
  SSTableBuilder builder(tmp.path(), 1, 4);
  const std::string bin_key1("\x00\x01\x02", 3);
  const std::string bin_key2("\x00\x01\x03\xff", 4);
  ASSERT_TRUE(builder.Add(bin_key1, "", 0).ok());
  ASSERT_TRUE(builder.Add(bin_key2, std::string(3, '\0'), 0).ok());
  ASSERT_TRUE(builder.Finish().ok());

  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  std::string value;
  bool tomb, found;
  ASSERT_TRUE(reader->Get(bin_key1, SearchMode::kBinary, &value, &tomb,
                          &found).ok());
  EXPECT_TRUE(found);
  EXPECT_TRUE(value.empty());
  ASSERT_TRUE(reader->Get(bin_key2, SearchMode::kLinear, &value, &tomb,
                          &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(value, std::string(3, '\0'));
}

}  // namespace
}  // namespace papyrus::store
