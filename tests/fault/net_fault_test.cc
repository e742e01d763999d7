// Network fault injection: timed receives, bounded retry on drops, dup
// and delay tolerance, and timeout surfacing with suspect-peer marking.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/timer.h"
#include "core/db_shard.h"
#include "core/runtime.h"
#include "obs/metrics.h"
#include "fault_test_util.h"

namespace papyrus::testutil {
namespace {

class NetFaultTest : public FaultTest {};

TEST_F(NetFaultTest, RecvForTimesOutWithNoSender) {
  sim::Topology topo;
  topo.nranks = 2;
  topo.ranks_per_node = 2;
  net::RunRanks(topo, [&](net::RankContext& ctx) {
    if (ctx.rank == 0) {
      net::Message m;
      const uint64_t t0 = NowMicros();
      EXPECT_FALSE(ctx.comm.RecvFor(1, 7, 50'000, &m));
      EXPECT_GE(NowMicros() - t0, 50'000u);
    }
    ctx.comm.Barrier();
  });
}

TEST_F(NetFaultTest, RecvForDeliversBeforeDeadline) {
  sim::Topology topo;
  topo.nranks = 2;
  topo.ranks_per_node = 2;
  net::RunRanks(topo, [&](net::RankContext& ctx) {
    if (ctx.rank == 1) {
      ctx.comm.Send(0, 7, "ping");
    } else {
      net::Message m;
      ASSERT_TRUE(ctx.comm.RecvFor(1, 7, 5'000'000, &m));
      EXPECT_EQ(m.payload, "ping");
      EXPECT_EQ(m.src, 1);
    }
    ctx.comm.Barrier();
  });
}

TEST_F(NetFaultTest, BarrierForTimesOutWhenPeerNeverArrives) {
  sim::Topology topo;
  topo.nranks = 2;
  topo.ranks_per_node = 2;
  net::RunRanks(topo, [&](net::RankContext& ctx) {
    if (ctx.rank == 0) {
      EXPECT_FALSE(ctx.comm.BarrierFor(100'000));
    }
    // Rank 1 deliberately never joins.
  });
}

// Keys owned by `owner` under the db's hash, enough for a small workload.
std::vector<std::string> KeysOwnedBy(const core::DbShardPtr& shard, int owner,
                                     int want) {
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < static_cast<size_t>(want); ++i) {
    std::string k = "nk" + std::to_string(i);
    if (shard->OwnerOf(k) == owner) keys.push_back(std::move(k));
  }
  return keys;
}

TEST_F(NetFaultTest, DroppedMessagesAreRetriedToSuccess) {
  // 10% drop on every runtime request/reply; the bounded-retry layer must
  // absorb it completely.  (8 attempts at p=0.1 each way: the chance any
  // single op exhausts its retries is ~1e-6 per the armed seed — and the
  // fixed seed makes the run reproducible regardless.)
  setenv("PAPYRUSKV_TIMEOUT_MS", "100", 1);
  setenv("PAPYRUSKV_RETRY_MAX", "8", 1);
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("dropdb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    const int peer = 1 - ctx.rank;
    const auto keys = KeysOwnedBy(shard, peer, 20);

    ctx.comm.Barrier();
    if (ctx.rank == 0) Arm("net.msg.drop=0.1");
    ctx.comm.Barrier();
    for (const auto& k : keys) {
      ASSERT_EQ(PutStr(db, k, "v:" + k + ":" + std::to_string(ctx.rank)),
                PAPYRUSKV_SUCCESS)
          << k;
    }
    for (const auto& k : keys) {
      std::string out;
      ASSERT_EQ(GetStr(db, k, &out), PAPYRUSKV_SUCCESS) << k;
      EXPECT_EQ(out, "v:" + k + ":" + std::to_string(ctx.rank));
    }
    ctx.comm.Barrier();
    fault::Registry::Instance().DisableAll();

    EXPECT_GT(
        fault::Registry::Instance().GetPoint("net.msg.drop").injected(), 0u);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(NetFaultTest, PersistentDropSurfacesTimeoutAndMarksSuspect) {
  // Rank 0 drops every runtime message it sends: its remote operations
  // must fail with PAPYRUSKV_ERR_TIMEOUT after bounded retries — not hang
  // — and the unreachable peer must be marked suspect.  Covers the
  // caller-side ladder of a sync put and of a sync get, each on an idle
  // chain.
  setenv("PAPYRUSKV_TIMEOUT_MS", "50", 1);
  setenv("PAPYRUSKV_RETRY_MAX", "2", 1);
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("deaddb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    ctx.comm.Barrier();

    if (ctx.rank == 0) {
      Arm("net.msg.drop=rank0:1.0");
      const auto keys = KeysOwnedBy(shard, 1, 1);
      const uint64_t t0 = NowMicros();
      EXPECT_EQ(PutStr(db, keys[0], "lost"), PAPYRUSKV_ERR_TIMEOUT);
      // Bounded: 2 attempts x 50ms plus backoff, nowhere near a hang.
      EXPECT_LT(NowMicros() - t0, 10'000'000u);
      auto* rt = papyrus::core::KvRuntime::Current();
      EXPECT_TRUE(rt->IsSuspect(1));

      // Idle the chain and forget the suspect, so the get below runs the
      // caller thread's own reply ladder and must re-mark it.
      rt->pipeline().Drain();
      rt->ClearFaultState();
      auto& reg = rt->metrics();
      const uint64_t timeouts0 = reg.GetCounter("net.req.timeouts").Value();
      const uint64_t inline0 = reg.GetCounter("async.inline_gets").Value();
      std::string out;
      const uint64_t t1 = NowMicros();
      EXPECT_EQ(GetStr(db, keys[0], &out), PAPYRUSKV_ERR_TIMEOUT);
      EXPECT_LT(NowMicros() - t1, 10'000'000u);
      EXPECT_TRUE(rt->IsSuspect(1));
      EXPECT_EQ(reg.GetCounter("net.req.timeouts").Value(), timeouts0 + 1);
      EXPECT_EQ(reg.GetCounter("async.inline_gets").Value(), inline0 + 1);
      fault::Registry::Instance().DisableAll();
    }
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(NetFaultTest, RelaxedMigrationSurvivesDroppedMessages) {
  // Relaxed mode: staged remote puts reach their owners only by migration
  // at the barrier, so every lost migration frame or ack must be re-sent
  // by the bounded-retry layer until the owner has applied it.
  setenv("PAPYRUSKV_TIMEOUT_MS", "100", 1);
  setenv("PAPYRUSKV_RETRY_MAX", "8", 1);
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_RELAXED;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("reldropdb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    const int peer = 1 - ctx.rank;

    ctx.comm.Barrier();
    if (ctx.rank == 0) Arm("net.msg.drop=0.1");
    ctx.comm.Barrier();
    // A fence after each put makes every key its own migration, so the
    // drop rate has enough frames and acks to bite on.
    for (const auto& k : KeysOwnedBy(shard, peer, 20)) {
      ASSERT_EQ(PutStr(db, k, "v:" + k + ":" + std::to_string(ctx.rank)),
                PAPYRUSKV_SUCCESS)
          << k;
      ASSERT_EQ(papyruskv_fence(db), PAPYRUSKV_SUCCESS);
    }
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_MEMTABLE), PAPYRUSKV_SUCCESS);
    // The peer's staged keys were applied here, at their owner.
    for (const auto& k : KeysOwnedBy(shard, ctx.rank, 20)) {
      std::string out;
      ASSERT_EQ(GetStr(db, k, &out), PAPYRUSKV_SUCCESS) << k;
      EXPECT_EQ(out, "v:" + k + ":" + std::to_string(peer));
    }
    ctx.comm.Barrier();
    fault::Registry::Instance().DisableAll();
    EXPECT_GT(
        fault::Registry::Instance().GetPoint("net.msg.drop").injected(), 0u);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(NetFaultTest, RelaxedFenceCompletesWhenOwnerNeverAcks) {
  // Rank 0 drops every runtime message it sends, so its staged puts can
  // never migrate: the fence must still return after bounded retries,
  // with the owner marked suspect and the give-up counted.
  setenv("PAPYRUSKV_TIMEOUT_MS", "50", 1);
  setenv("PAPYRUSKV_RETRY_MAX", "2", 1);
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_RELAXED;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("reldeaddb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    ctx.comm.Barrier();

    if (ctx.rank == 0) {
      auto* rt = papyrus::core::KvRuntime::Current();
      const uint64_t timeouts0 =
          rt->metrics().GetCounter("net.req.timeouts").Value();
      Arm("net.msg.drop=rank0:1.0");
      for (const auto& k : KeysOwnedBy(shard, 1, 5)) {
        ASSERT_EQ(PutStr(db, k, "lost"), PAPYRUSKV_SUCCESS) << k;
      }
      const uint64_t t0 = NowMicros();
      EXPECT_EQ(papyruskv_fence(db), PAPYRUSKV_SUCCESS);
      // Bounded: 2 attempts x 50ms plus backoff, nowhere near a hang.
      EXPECT_LT(NowMicros() - t0, 10'000'000u);
      EXPECT_TRUE(rt->IsSuspect(1));
      EXPECT_GT(rt->metrics().GetCounter("net.req.timeouts").Value(),
                timeouts0);
      fault::Registry::Instance().DisableAll();
    }
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(NetFaultTest, DeadPeerDoesNotStallTrafficToHealthyPeers) {
  // Rank 2 goes silent (every message it sends is dropped) while rank 0
  // has an unacked put_async to it.  That frame sits in its retry ladder
  // for max_attempts x 200ms, but it holds only rank 2's chain: rank 0's
  // sync puts and gets to rank 1 must each finish within one reply
  // timeout.  The bound is read from rank 0's kv.put_us / kv.get_us
  // histogram max.
  setenv("PAPYRUSKV_TIMEOUT_MS", "200", 1);
  const uint64_t kReplyTimeoutUs = 200'000;
  RunKv(3, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("isodb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    ctx.comm.Barrier();

    if (ctx.rank == 0) {
      auto& reg = papyrus::core::KvRuntime::Current()->metrics();
      Arm("net.msg.drop=rank2:1.0");
      const std::string dead_key = KeysOwnedBy(shard, 2, 1)[0];
      papyruskv_event_t ev = 0;
      ASSERT_EQ(papyruskv_put_async(db, dead_key.data(), dead_key.size(),
                                    "lost", 4, &ev),
                PAPYRUSKV_SUCCESS);
      const auto keys = KeysOwnedBy(shard, 1, 10);
      for (const auto& k : keys) {
        ASSERT_EQ(PutStr(db, k, "iso:" + k), PAPYRUSKV_SUCCESS) << k;
      }
      for (const auto& k : keys) {
        std::string out;
        ASSERT_EQ(GetStr(db, k, &out), PAPYRUSKV_SUCCESS) << k;
        EXPECT_EQ(out, "iso:" + k);
      }
      const obs::HistogramData puts = reg.GetHistogram("kv.put_us").Snapshot();
      const obs::HistogramData gets = reg.GetHistogram("kv.get_us").Snapshot();
      EXPECT_EQ(puts.count, keys.size());
      EXPECT_EQ(gets.count, keys.size());
      EXPECT_LT(puts.max, kReplyTimeoutUs);
      EXPECT_LT(gets.max, kReplyTimeoutUs);
      // The dead peer's op itself still ends by its deadline.
      EXPECT_EQ(papyruskv_wait(db, ev), PAPYRUSKV_ERR_TIMEOUT);
      EXPECT_TRUE(papyrus::core::KvRuntime::Current()->IsSuspect(2));
      fault::Registry::Instance().DisableAll();
    }
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
  unsetenv("PAPYRUSKV_TIMEOUT_MS");
}

TEST_F(NetFaultTest, DuplicatedMessagesAreHarmless) {
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("dupdb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    const auto keys = KeysOwnedBy(shard, 1 - ctx.rank, 20);

    ctx.comm.Barrier();
    if (ctx.rank == 0) Arm("net.msg.dup=0.5");
    ctx.comm.Barrier();
    for (const auto& k : keys) {
      ASSERT_EQ(PutStr(db, k, "dup:" + std::to_string(ctx.rank)),
                PAPYRUSKV_SUCCESS);
    }
    for (const auto& k : keys) {
      std::string out;
      ASSERT_EQ(GetStr(db, k, &out), PAPYRUSKV_SUCCESS) << k;
      EXPECT_EQ(out, "dup:" + std::to_string(ctx.rank));
    }
    ctx.comm.Barrier();
    fault::Registry::Instance().DisableAll();
    EXPECT_GT(
        fault::Registry::Instance().GetPoint("net.msg.dup").injected(), 0u);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(NetFaultTest, DelayedMessagesStillCorrect) {
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("delaydb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    const auto keys = KeysOwnedBy(shard, 1 - ctx.rank, 10);

    // Every message +1ms (the PAPYRUSKV_FAULT_DELAY_US default): ops get
    // slower, never wrong — and well inside the 10s reply deadline.
    ctx.comm.Barrier();
    if (ctx.rank == 0) Arm("net.msg.delay=1.0");
    ctx.comm.Barrier();
    for (const auto& k : keys) {
      ASSERT_EQ(PutStr(db, k, "slow"), PAPYRUSKV_SUCCESS);
    }
    for (const auto& k : keys) {
      std::string out;
      ASSERT_EQ(GetStr(db, k, &out), PAPYRUSKV_SUCCESS) << k;
      EXPECT_EQ(out, "slow");
    }
    ctx.comm.Barrier();
    fault::Registry::Instance().DisableAll();
    EXPECT_GT(
        fault::Registry::Instance().GetPoint("net.msg.delay").injected(),
        0u);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

}  // namespace
}  // namespace papyrus::testutil
