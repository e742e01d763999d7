// Storage groups (§2.7): ranks sharing a storage target read each other's
// SSTables directly, eliminating value transfer over the interconnect.
#include <gtest/gtest.h>

#include "core/db_shard.h"
#include "kv_test_util.h"

namespace papyrus::testutil {
namespace {

using Kv = KvTest;

std::string KeyOwnedBy(int owner, int nranks, const std::string& prefix) {
  for (int i = 0;; ++i) {
    const std::string k = prefix + std::to_string(i);
    if (static_cast<int>(papyrus::BuiltinKeyHash(k.data(), k.size()) %
                         static_cast<uint64_t>(nranks)) == owner) {
      return k;
    }
  }
}

TEST_F(Kv, SharedNvmGetAvoidsValueTransfer) {
  // 4 ranks, all on one node → one storage group.  After the owner's data
  // is flushed to SSTables, a remote get by a group member must be served
  // from the shared NVM (foreign_sstable_hits), not by shipping the value.
  RunKv(4, tmp_.path(), [](net::RankContext& ctx) {
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("sg", PAPYRUSKV_CREATE, nullptr, &db),
              PAPYRUSKV_SUCCESS);
    const std::string key = KeyOwnedBy(0, 4, "sgkey");
    const std::string big_val(2000, 'S');
    if (ctx.rank == 0) {
      ASSERT_EQ(PutStr(db, key, big_val), PAPYRUSKV_SUCCESS);
    }
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_SSTABLE), PAPYRUSKV_SUCCESS);

    if (ctx.rank == 3) {
      std::string out;
      ASSERT_EQ(GetStr(db, key, &out), PAPYRUSKV_SUCCESS);
      EXPECT_EQ(out, big_val);
      const auto stats = papyrus::core::DbHandle(db)->StatsSnapshot();
      EXPECT_GE(stats.foreign_sstable_hits, 1u)
          << "value was not read from the shared SSTable";
      EXPECT_EQ(stats.remote_value_transfers, 0u)
          << "value crossed the network despite shared storage";
    }
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_MEMTABLE), PAPYRUSKV_SUCCESS);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(Kv, CrossGroupGetTransfersValue) {
  // 4 ranks on 2 nodes (2 per node) → two storage groups.  A get across
  // groups must ship the value over the interconnect.
  RunKv(
      4, tmp_.path(),
      [](net::RankContext& ctx) {
        papyruskv_db_t db;
        ASSERT_EQ(papyruskv_open("xg", PAPYRUSKV_CREATE, nullptr, &db),
                  PAPYRUSKV_SUCCESS);
        const std::string key = KeyOwnedBy(0, 4, "xgkey");  // node 0
        if (ctx.rank == 0) {
          ASSERT_EQ(PutStr(db, key, "crossgroup"), PAPYRUSKV_SUCCESS);
        }
        ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_SSTABLE),
                  PAPYRUSKV_SUCCESS);

        if (ctx.rank == 3) {  // node 1: different group
          std::string out;
          ASSERT_EQ(GetStr(db, key, &out), PAPYRUSKV_SUCCESS);
          EXPECT_EQ(out, "crossgroup");
          const auto stats = papyrus::core::DbHandle(db)->StatsSnapshot();
          EXPECT_EQ(stats.foreign_sstable_hits, 0u);
          EXPECT_GE(stats.remote_value_transfers, 1u);
        }
        ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_MEMTABLE),
                  PAPYRUSKV_SUCCESS);
        ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
      },
      /*ranks_per_node=*/2);
}

TEST_F(Kv, GroupSizeEnvOverridesTopology) {
  // PAPYRUSKV_GROUP_SIZE=1 disables sharing even for co-located ranks
  // (artifact's "Def" configuration in Figure 8).
  setenv("PAPYRUSKV_GROUP_SIZE", "1", 1);
  RunKv(2, tmp_.path(), [](net::RankContext& ctx) {
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("nog", PAPYRUSKV_CREATE, nullptr, &db),
              PAPYRUSKV_SUCCESS);
    const std::string key = KeyOwnedBy(0, 2, "nogkey");
    if (ctx.rank == 0) {
      ASSERT_EQ(PutStr(db, key, "solo"), PAPYRUSKV_SUCCESS);
    }
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_SSTABLE), PAPYRUSKV_SUCCESS);
    if (ctx.rank == 1) {
      std::string out;
      ASSERT_EQ(GetStr(db, key, &out), PAPYRUSKV_SUCCESS);
      const auto stats = papyrus::core::DbHandle(db)->StatsSnapshot();
      EXPECT_EQ(stats.foreign_sstable_hits, 0u);
      EXPECT_GE(stats.remote_value_transfers, 1u);
    }
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_MEMTABLE), PAPYRUSKV_SUCCESS);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
  unsetenv("PAPYRUSKV_GROUP_SIZE");
}

TEST_F(Kv, SharedReadSeesDeletionsAndUpdates) {
  // Tombstones and newer versions in the owner's SSTables must be honored
  // by the foreign reader exactly as by the owner.
  RunKv(2, tmp_.path(), [](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.compaction_trigger = 0;  // keep every generation of SSTables
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("sgd", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    const std::string kept = KeyOwnedBy(0, 2, "sgd_keep");
    const std::string gone = KeyOwnedBy(0, 2, "sgd_gone");
    const std::string changed = KeyOwnedBy(0, 2, "sgd_chg");

    if (ctx.rank == 0) {
      ASSERT_EQ(PutStr(db, kept, "v1"), PAPYRUSKV_SUCCESS);
      ASSERT_EQ(PutStr(db, gone, "v1"), PAPYRUSKV_SUCCESS);
      ASSERT_EQ(PutStr(db, changed, "v1"), PAPYRUSKV_SUCCESS);
    }
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_SSTABLE), PAPYRUSKV_SUCCESS);
    if (ctx.rank == 0) {
      ASSERT_EQ(papyruskv_delete(db, gone.data(), gone.size()),
                PAPYRUSKV_SUCCESS);
      ASSERT_EQ(PutStr(db, changed, "v2"), PAPYRUSKV_SUCCESS);
    }
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_SSTABLE), PAPYRUSKV_SUCCESS);

    if (ctx.rank == 1) {
      std::string out;
      ASSERT_EQ(GetStr(db, kept, &out), PAPYRUSKV_SUCCESS);
      EXPECT_EQ(out, "v1");
      EXPECT_EQ(GetStr(db, gone, &out), PAPYRUSKV_NOT_FOUND);
      ASSERT_EQ(GetStr(db, changed, &out), PAPYRUSKV_SUCCESS);
      EXPECT_EQ(out, "v2");
    }
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_MEMTABLE), PAPYRUSKV_SUCCESS);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(Kv, SharedReadCorrectAfterOwnerCompaction) {
  // After the owner compacts (SSIDs collapse into a merged table), the
  // foreign search must still find everything — including via the
  // authoritative-retry fallback if the advertised tables vanished.
  RunKv(2, tmp_.path(), [](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.memtable_size = 1024;  // force many small flushes
    opt.compaction_trigger = 2;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("sgc", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    std::vector<std::string> keys;
    for (int i = 0; i < 40; ++i) {
      keys.push_back(KeyOwnedBy(0, 2, "sgc" + std::to_string(i) + "_"));
    }
    if (ctx.rank == 0) {
      for (const auto& k : keys) {
        ASSERT_EQ(PutStr(db, k, "val_" + k + std::string(100, 'p')),
                  PAPYRUSKV_SUCCESS);
      }
    }
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_SSTABLE), PAPYRUSKV_SUCCESS);

    if (ctx.rank == 1) {
      for (const auto& k : keys) {
        std::string out;
        ASSERT_EQ(GetStr(db, k, &out), PAPYRUSKV_SUCCESS) << k;
        EXPECT_EQ(out, "val_" + k + std::string(100, 'p'));
      }
    }
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_MEMTABLE), PAPYRUSKV_SUCCESS);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(Kv, ForeignReaderCacheKeepsOnlyLiveTables) {
  // Each generation flushes one owner table and reads a key from it via
  // §2.7, caching a reader; the third flush compacts every table into one.
  // The reader cache must then hold only the merged table: a reader of a
  // compacted-away table would pin the deleted file.
  std::vector<uint64_t> owner_live;  // rank 0 publishes, rank 1 reads
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.compaction_trigger = 3;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("sgp", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    for (int gen = 0; gen < 3; ++gen) {
      const std::string key = KeyOwnedBy(0, 2, "sgp" + std::to_string(gen));
      if (ctx.rank == 0) {
        ASSERT_EQ(PutStr(db, key, "gen" + std::to_string(gen)),
                  PAPYRUSKV_SUCCESS);
      }
      ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_SSTABLE), PAPYRUSKV_SUCCESS);
      if (ctx.rank == 1) {
        std::string out;
        ASSERT_EQ(GetStr(db, key, &out), PAPYRUSKV_SUCCESS);
        EXPECT_EQ(out, "gen" + std::to_string(gen));
      }
      ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_MEMTABLE), PAPYRUSKV_SUCCESS);
    }
    const auto shard = papyrus::core::DbHandle(db);
    if (ctx.rank == 0) owner_live = shard->manifest().LiveSsids();
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_MEMTABLE), PAPYRUSKV_SUCCESS);
    if (ctx.rank == 1) {
      ASSERT_EQ(owner_live.size(), 1u) << "the owner did not compact";
      EXPECT_EQ(shard->StatsSnapshot().foreign_sstable_hits, 3u);
      EXPECT_EQ(shard->ForeignReaderSsids(0), owner_live);
    }
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

}  // namespace
}  // namespace papyrus::testutil
