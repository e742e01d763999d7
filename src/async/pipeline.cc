#include "async/pipeline.h"

#include <cassert>
#include <utility>

#include "common/env.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/runtime.h"
#include "obs/trace.h"
#include "repl/replicator.h"

namespace papyrus::async {

using core::GetMultiOp;
using core::GetMultiResult;
using core::KvView;

// ---------------------------------------------------------------------------
// OpState
// ---------------------------------------------------------------------------

void OpState::Complete(Status s) {
  {
    MutexLock lock(&mu_);
    status_ = std::move(s);
    done_ = true;
  }
  cv_.NotifyOne();
}

void OpState::CompleteValue(Status s, std::string value) {
  value_ = std::move(value);
  {
    MutexLock lock(&mu_);
    status_ = std::move(s);
    result_ = Result::kValue;
    done_ = true;
  }
  cv_.NotifyOne();
}

void OpState::CompleteResp(Status s, core::GetResp resp) {
  resp_ = std::move(resp);
  {
    MutexLock lock(&mu_);
    status_ = std::move(s);
    result_ = Result::kResp;
    done_ = true;
  }
  cv_.NotifyOne();
}

Status OpState::Wait() {
  MutexLock lock(&mu_);
  while (!done_) cv_.Wait(&mu_);
  return status_;
}

bool OpState::done() const {
  MutexLock lock(&mu_);
  return done_;
}

OpState::Result OpState::result() const {
  MutexLock lock(&mu_);
  return result_;
}

OpHandle CompletedOp(Status s) {
  auto h = std::make_shared<OpState>();
  h->Complete(std::move(s));
  return h;
}

OpHandle CompletedValueOp(Status s, std::string value) {
  auto h = std::make_shared<OpState>();
  h->CompleteValue(std::move(s), std::move(value));
  return h;
}

// ---------------------------------------------------------------------------
// AsyncPipeline
// ---------------------------------------------------------------------------

AsyncPipeline::AsyncPipeline(core::KvRuntime& rt) : rt_(rt) {
  obs::Registry& reg = rt_.metrics();
  g_depth_ = &reg.GetGauge("async.queue_depth");
  g_inflight_ = &reg.GetGauge("async.inflight");
  h_put_batch_ = &reg.GetHistogram("async.batch_size");
  h_get_batch_ = &reg.GetHistogram("async.get_batch_size");
  h_repl_batch_ = &reg.GetHistogram("async.repl_batch_size");
  c_op_errors_ = &reg.GetCounter("async.op_errors");
  c_frames_ = &reg.GetCounter("async.frames");
  c_inline_gets_ = &reg.GetCounter("async.inline_gets");
  g_migrations_ = &reg.GetGauge("net.migration_queue_depth");
  h_migration_us_ = &reg.GetHistogram("store.migration_us");
  h_put_op_us_ = &reg.GetHistogram("async.put_op_us");
  h_get_op_us_ = &reg.GetHistogram("async.get_op_us");
}

void AsyncPipeline::RecordOpLatency(const Submission& s) {
  if (!s.handle) return;  // kRepl/kMigrate: no per-op waiter
  obs::Histogram* h =
      s.kind == Submission::Kind::kPut ? h_put_op_us_ : h_get_op_us_;
  h->Record(NowMicros() - s.submitted_at_us);
}

void AsyncPipeline::Start() {
  if (started_) return;
  if (auto v = EnvInt("PAPYRUSKV_BATCH_MAX"); v && *v > 0) {
    batch_max_ = static_cast<size_t>(*v);
  }
  ops_lane_.name = "async";
  repl_lane_.name = "async_repl";
  // The accumulation window is an ops-lane bench knob only: a windowed repl
  // lane would add its delay to every quorum-deferred put ack.
  if (auto v = EnvInt("PAPYRUSKV_BATCH_WINDOW_US"); v && *v > 0) {
    ops_lane_.window_us = static_cast<uint64_t>(*v);
  }
  started_ = true;
  ops_lane_.thread = std::thread([this] { Loop(&ops_lane_); });
  repl_lane_.thread = std::thread([this] { Loop(&repl_lane_); });
}

void AsyncPipeline::Stop() {
  if (!started_) return;
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  ops_lane_.cv.NotifyAll();
  repl_lane_.cv.NotifyAll();
  ops_lane_.thread.join();
  repl_lane_.thread.join();
  started_ = false;
}

void AsyncPipeline::Enqueue(int dst, Submission s) {
  Lane& lane =
      s.kind == Submission::Kind::kRepl ? repl_lane_ : ops_lane_;
  {
    MutexLock lock(&mu_);
    PushLocked(&lane, dst, std::move(s));
  }
  lane.cv.NotifyOne();
}

void AsyncPipeline::PushLocked(Lane* lane, int dst, Submission s) {
  lane->queues[dst].push_back(std::move(s));
  ++lane->queued;
  g_depth_->Set(static_cast<int64_t>(ops_lane_.queued + repl_lane_.queued));
}

OpHandle AsyncPipeline::SubmitPut(int dst, uint32_t dbid, const Slice& key,
                                  const Slice& value, bool tombstone) {
  Submission s;
  s.kind = Submission::Kind::kPut;
  s.dbid = dbid;
  s.key = key.ToString();
  s.value = value.ToString();
  s.tombstone = tombstone;
  s.submitted_at_us = NowMicros();
  s.handle = std::make_shared<OpState>();
  OpHandle h = s.handle;
  Enqueue(dst, std::move(s));
  return h;
}

OpHandle AsyncPipeline::SubmitGet(int dst, uint32_t dbid, const Slice& key,
                                  bool full_search) {
  Submission s;
  s.kind = Submission::Kind::kGet;
  s.dbid = dbid;
  s.key = key.ToString();
  s.full_search = full_search;
  s.submitted_at_us = NowMicros();
  s.handle = std::make_shared<OpState>();
  OpHandle h = s.handle;
  Enqueue(dst, std::move(s));
  return h;
}

Status AsyncPipeline::GetSync(int dst, uint32_t dbid, const Slice& key,
                              bool full_search, core::GetResp* resp) {
  bool idle = false;
  {
    MutexLock lock(&mu_);
    idle = ops_lane_.queued == 0 && ops_lane_.inflight == 0;
    if (idle) ClaimInflight(&ops_lane_, 1);
  }
  if (!idle) {
    OpHandle h = SubmitGet(dst, dbid, key, full_search);
    Status s = h->Wait();
    if (s.ok()) *resp = h->TakeResp();
    return s;
  }
  assert(dst != rt_.rank() && "pipeline never targets the local rank");
  const uint64_t start_us = NowMicros();
  c_inline_gets_->Inc();
  Status s;
  if (rt_.crashed()) {
    // Same failure as ProcessCycle's: a crashed rank emits no traffic.
    s = Status(PAPYRUSKV_ERR, "rank crashed (simulated)");
  } else {
    // The one-op frame ProcessCycle would build, sent from this thread;
    // RequestReply is the retry/timeout ladder.
    c_frames_->Inc();
    h_get_batch_->Record(1);
    const int tag = rt_.AllocRespTag();
    net::Message reply;
    {
      obs::OpSpan rpc("net", "get_multi.rpc");
      rpc.MarkFlowOut();
      std::vector<GetMultiOp> ops(1);
      ops[0].key = key.ToString();
      ops[0].full_search = full_search;
      const std::string req = EncodeGetMulti(
          dbid, static_cast<uint32_t>(tag),
          static_cast<uint32_t>(rt_.layout().GroupOf(rt_.rank())), ops,
          rpc.context());
      s = rt_.RequestReply(dst, core::kOpGetMulti, req, tag, &reply);
    }
    if (s.ok()) {
      std::vector<GetMultiResult> results;
      if (!core::DecodeGetMultiResp(reply.payload, &results) ||
          results.size() != 1) {
        s = Status::Corrupted("bad get multi response");
      } else {
        s = Status(results[0].status);
        *resp = std::move(results[0].resp);
      }
    }
  }
  if (!s.ok()) c_op_errors_->Inc();
  h_get_op_us_->Record(NowMicros() - start_us);
  RetireInflight(&ops_lane_, 1);
  return s;
}

void AsyncPipeline::SubmitReplAppend(int dst, uint32_t dbid, uint32_t primary,
                                     uint64_t epoch, uint64_t seq, bool reset,
                                     uint64_t flushed_through,
                                     const Slice& key, const Slice& value,
                                     bool tombstone) {
  Submission s;
  s.kind = Submission::Kind::kRepl;
  s.dbid = dbid;
  s.key = key.ToString();
  s.value = value.ToString();
  s.tombstone = tombstone;
  s.repl_primary = primary;
  s.repl_epoch = epoch;
  s.repl_seq = seq;
  s.repl_reset = reset;
  s.repl_flushed = flushed_through;
  s.submitted_at_us = NowMicros();
  Enqueue(dst, std::move(s));
}

void AsyncPipeline::SubmitMigration(std::shared_ptr<core::DbShard> db,
                                    std::shared_ptr<store::MemTable> sealed) {
  Submission s;
  s.kind = Submission::Kind::kMigrate;
  s.dbid = db->id();
  s.submitted_at_us = NowMicros();
  s.migration = std::make_shared<Migration>();
  s.migration->db = std::move(db);
  s.migration->mem = std::move(sealed);
  {
    MutexLock lock(&mu_);
    while (migrations_ >= core::kDefaultQueueDepth) drain_cv_.Wait(&mu_);
    g_migrations_->Set(static_cast<int64_t>(++migrations_));
    PushLocked(&ops_lane_, kUnsorted, std::move(s));
  }
  ops_lane_.cv.NotifyOne();
}

void AsyncPipeline::FinishMigration(const Submission& s) {
  // The sealed table leaves imm_remote_ only now: until every owner acked
  // (or was given up on), gets still find the staged pairs there.
  s.migration->db->MigrationFinished(s.migration->mem);
  h_migration_us_->Record(NowMicros() - s.submitted_at_us);
  {
    MutexLock lock(&mu_);
    g_migrations_->Set(static_cast<int64_t>(--migrations_));
  }
  drain_cv_.NotifyAll();  // wakes a submitter blocked on the bound
}

void AsyncPipeline::Drain() {
  MutexLock lock(&mu_);
  while (ops_lane_.queued + ops_lane_.inflight + repl_lane_.queued +
             repl_lane_.inflight >
         0) {
    drain_cv_.Wait(&mu_);
  }
}

void AsyncPipeline::Loop(Lane* lane) {
  rt_.AdoptObservability(lane->name);
  for (;;) {
    std::map<int, std::deque<Submission>> work;
    size_t count = 0;
    {
      MutexLock lock(&mu_);
      while (!stop_ && lane->queued == 0) lane->cv.Wait(&mu_);
      if (lane->queued == 0) return;  // stop_ set and nothing left to flush
      // Optional accumulation window: trade latency for larger batches
      // (benchmark knob; 0 = rely on natural batching under load).
      if (lane->window_us > 0) {
        const uint64_t deadline = NowMicros() + lane->window_us;
        while (!stop_) {
          const uint64_t now = NowMicros();
          if (now >= deadline) break;
          lane->cv.WaitForMicros(&mu_, deadline - now);
        }
      }
      work.swap(lane->queues);
      count = lane->queued;
      lane->queued = 0;
      g_depth_->Set(
          static_cast<int64_t>(ops_lane_.queued + repl_lane_.queued));
      ClaimInflight(lane, count);
    }
    // Each migration is a cycle of its own: its frames go out as soon as it
    // is sorted, not after every other sealed table swapped in with it has
    // been sorted and encoded too.  Running
    // them ahead of the ordinary frames swapped in with them reorders
    // nothing that needs order: one db's migrations and sequential puts
    // never share a swap (a mode change fences), and a relaxed get of a key
    // this rank staged is answered from the staged table, not the owner.
    if (auto it = work.find(kUnsorted); it != work.end()) {
      std::deque<Submission> migrations = std::move(it->second);
      work.erase(it);
      count -= migrations.size();
      for (Submission& m : migrations) {
        std::map<int, std::deque<Submission>> one;
        one[kUnsorted].push_back(std::move(m));
        ProcessCycle(std::move(one), lane, 1);
      }
    }
    ProcessCycle(std::move(work), lane, count);
  }
}

void AsyncPipeline::ClaimInflight(Lane* lane, size_t n) {
  lane->inflight += n;
  g_inflight_->Set(
      static_cast<int64_t>(ops_lane_.inflight + repl_lane_.inflight));
}

void AsyncPipeline::RetireInflight(Lane* lane, size_t n) {
  {
    MutexLock lock(&mu_);
    lane->inflight -= n;
    g_inflight_->Set(
        static_cast<int64_t>(ops_lane_.inflight + repl_lane_.inflight));
  }
  drain_cv_.NotifyAll();
}

void AsyncPipeline::ProcessCycle(std::map<int, std::deque<Submission>> work,
                                 Lane* lane, size_t count) {
  if (rt_.crashed()) {
    // A crashed rank emits no traffic (§4.2 failure model); every queued op
    // still completes so no waiter can hang.
    for (auto& [dst, q] : work) {
      for (Submission& s : q) {
        if (s.migration) {
          FinishMigration(s);  // the payload dies with the rank
          continue;
        }
        c_op_errors_->Inc();
        if (!s.handle) continue;  // repl appends: no waiter, the stream dies
        RecordOpLatency(s);
        s.handle->Complete(Status(PAPYRUSKV_ERR, "rank crashed (simulated)"));
      }
    }
    RetireInflight(lane, count);
    return;
  }

  const uint32_t my_group =
      static_cast<uint32_t>(rt_.layout().GroupOf(rt_.rank()));

  // One encoded wire frame: consecutive same-kind, same-db submissions for
  // one destination, capped at batch_max_ — or one owner's whole chunk of a
  // migration, however large (§2.4: one chunk per owner).
  using Kind = Submission::Kind;
  struct Frame {
    int dst = 0;
    int op = 0;  // wire opcode
    Kind kind = Kind::kPut;
    uint32_t dbid = 0;
    int tag = 0;
    size_t records = 0;  // put/migration frames: ops the ack must cover
    std::string payload;
    std::vector<Submission> ops;  // a migration frame: its one kMigrate
    std::unique_ptr<obs::OpSpan> rpc;  // open until the frame is acked
  };
  // The RPC leg of a whole frame: each op serviced by the remote handler
  // becomes a flow-linked child of this span, so the merged timeline shows
  // N coalesced ops sharing one wire round trip.
  auto new_frame = [&](int dst, Kind kind, uint32_t dbid) {
    Frame f;
    f.dst = dst;
    f.kind = kind;
    f.dbid = dbid;
    f.tag = rt_.AllocRespTag();
    f.rpc = std::make_unique<obs::OpSpan>(
        "net",
        kind == Kind::kPut       ? "put_batch.rpc"
        : kind == Kind::kGet     ? "get_multi.rpc"
        : kind == Kind::kMigrate ? "migration.rpc"
                                 : "repl_append.rpc",
        obs::OpSpan::kDetached);
    f.rpc->MarkFlowOut();
    return f;
  };
  // Views of the frame's submissions, which outlive the encode below.
  auto to_records = [](const std::vector<Submission>& ops) {
    std::vector<KvView> records;
    records.reserve(ops.size());
    for (const Submission& s : ops) {
      records.push_back(KvView{s.key, s.value, s.tombstone});
    }
    return records;
  };
  // Frames to one destination form an ordered chain, processed below under
  // the SDCB rule: frame N+1 is not put on the wire until frame N is acked.
  std::map<int, std::vector<Frame>> chains;
  if (auto it = work.find(kUnsorted); it != work.end()) {
    // §2.4: "sorts the key-value pairs in the MemTable by the owner rank
    // number ... accumulates the key-value pairs per rank" — here, on the
    // lane thread, so the sealing thread pays only the enqueue.
    for (const Submission& s : it->second) {
      auto chunks = s.migration->db->CollectOwnerChunks(*s.migration->mem);
      assert(!chunks.empty() && "a sealed remote MemTable is never empty");
      s.migration->frames_left = chunks.size();
      for (auto& [owner, records] : chunks) {
        assert(owner != rt_.rank() &&
               "remote MemTable must not hold self-owned pairs");
        Frame f = new_frame(owner, Kind::kMigrate, s.dbid);
        f.op = core::kOpPutBatch;
        f.records = records.size();
        f.payload = EncodePutBatch(f.dbid, static_cast<uint32_t>(f.tag),
                                   records, f.rpc->context());
        f.ops.push_back(s);
        chains[owner].push_back(std::move(f));
      }
    }
    work.erase(it);  // each frame holds its migration from here on
  }
  for (auto& [dst, q] : work) {
    assert(dst != rt_.rank() && "pipeline never targets the local rank");
    size_t i = 0;
    while (i < q.size()) {
      Frame f = new_frame(dst, q[i].kind, q[i].dbid);
      const size_t begin = i;
      while (i < q.size() && (i - begin) < batch_max_ &&
             q[i].kind == f.kind && q[i].dbid == f.dbid) {
        if (f.kind == Kind::kRepl && i != begin) {
          // A replication frame is one contiguous run of one stream
          // incarnation: an epoch change, a sequence discontinuity, or a
          // fresh resync marker starts a new frame (the follower acks each
          // frame by its (epoch, first_seq..) coordinates).
          const Submission& prev = f.ops.back();
          if (q[i].repl_reset || q[i].repl_epoch != prev.repl_epoch ||
              q[i].repl_seq != prev.repl_seq + 1) {
            break;
          }
        }
        f.ops.push_back(std::move(q[i]));
        ++i;
      }
      const auto tag = static_cast<uint32_t>(f.tag);
      if (f.kind == Kind::kPut) {
        f.op = core::kOpPutBatch;
        const std::vector<KvView> records = to_records(f.ops);
        h_put_batch_->Record(static_cast<uint64_t>(records.size()));
        f.records = records.size();
        f.payload = EncodePutBatch(f.dbid, tag, records, f.rpc->context());
      } else if (f.kind == Kind::kGet) {
        f.op = core::kOpGetMulti;
        std::vector<GetMultiOp> ops;
        ops.reserve(f.ops.size());
        for (const Submission& s : f.ops) {
          GetMultiOp op;
          op.key = s.key;
          op.full_search = s.full_search;
          ops.push_back(std::move(op));
        }
        h_get_batch_->Record(static_cast<uint64_t>(ops.size()));
        f.payload =
            EncodeGetMulti(f.dbid, tag, my_group, ops, f.rpc->context());
      } else {
        f.op = core::kOpReplAppend;
        core::ReplAppendMeta meta;
        meta.primary = f.ops.front().repl_primary;
        meta.epoch = f.ops.front().repl_epoch;
        meta.first_seq = f.ops.front().repl_seq;
        meta.flushed_through = f.ops.back().repl_flushed;
        meta.reset = f.ops.front().repl_reset;
        const std::vector<KvView> records = to_records(f.ops);
        h_repl_batch_->Record(static_cast<uint64_t>(records.size()));
        f.payload = core::EncodeReplAppend(f.dbid, tag, meta, records,
                                           f.rpc->context());
      }
      chains[dst].push_back(std::move(f));
    }
  }

  // The last resolved frame of a migration finishes it.
  auto migration_frame_done = [&](const Frame& f) {
    const Submission& s = f.ops.front();
    if (--s.migration->frames_left == 0) FinishMigration(s);
  };
  auto send_frame = [&](const Frame& f) {
    c_frames_->Inc();
    rt_.BeginRequest(f.dst, f.op, f.payload);
  };
  // Completes every op of a failed frame with one shared status; a failed
  // replication frame instead fails the follower out of the shard's quorum
  // accounting, and a failed migration chunk just resolves its frame (no
  // per-op waiters to complete in either case).
  auto fail_frame = [&](Frame& f, const Status& s) {
    if (f.kind == Kind::kMigrate) {
      migration_frame_done(f);
      return;
    }
    if (f.kind == Kind::kRepl) {
      c_op_errors_->Inc();
      if (core::DbShardPtr db = rt_.Find(static_cast<int>(f.dbid))) {
        if (repl::Replicator* r = db->replicator()) r->OnAppendFailed(f.dst);
      }
      return;
    }
    for (Submission& sub : f.ops) {
      c_op_errors_->Inc();
      RecordOpLatency(sub);
      sub.handle->Complete(s);
    }
  };

  // Only each chain's *head* frame goes on the wire up front: frames to
  // distinct destinations overlap, amortizing the round trip across the
  // cycle, but frame N+1 of a chain is released only by frame N's ack
  // below.  This is what makes the bounded re-send safe (DESIGN.md §8): the
  // one frame per destination that can be retried is always the newest one
  // sent there, so a retry re-applies at worst its own data — never data
  // an earlier frame committed after it (SDCB survives retries).
  for (auto& [dst, chain] : chains) send_frame(chain.front());

  for (auto& [dst, chain] : chains) {
    bool dst_down = false;  // an earlier frame to dst exhausted its retries
    for (size_t fi = 0; fi < chain.size(); ++fi) {
      Frame& f = chain[fi];
      if (dst_down) {
        // Never sent: the timed-out frame ahead of this one may still be
        // sitting unapplied in the peer's mailbox, and sending past it
        // could commit data out of submission order.
        f.rpc.reset();
        fail_frame(f, Status::Timeout("rank " + std::to_string(dst) +
                                      " unresponsive; frame not sent "
                                      "(earlier frame unacked)"));
        continue;
      }
      net::Message ack;
      Status sent = rt_.AwaitReply(f.dst, f.op, f.payload, f.tag, &ack);
      f.rpc.reset();  // close the frame's RPC span at ack (or give-up) time
      if (!sent.ok()) {
        fail_frame(f, sent);
        dst_down = true;  // the unsent rest of this chain fails above
        continue;
      }
      // The ack proves the handler applied this frame; the next frame in
      // this destination's chain may now go on the wire.
      if (fi + 1 < chain.size()) send_frame(chain[fi + 1]);
      if (f.kind == Kind::kRepl) {
        uint64_t epoch = 0;
        uint64_t acked_seq = 0;
        bool ok = false;
        if (!core::DecodeReplAppendAck(ack.payload, &epoch, &acked_seq,
                                       &ok)) {
          fail_frame(f, Status::Corrupted("bad repl append ack"));
          continue;
        }
        // Hand the follower's (epoch, seq) progress — or its NACK — to the
        // shard's replicator; a NACK triggers an inline resync pump, whose
        // submissions land in the next cycle's queues.
        if (core::DbShardPtr db = rt_.Find(static_cast<int>(f.dbid))) {
          if (repl::Replicator* r = db->replicator()) {
            r->OnAppendAck(f.dst, epoch, acked_seq, ok);
          }
        }
        continue;
      }
      if (f.kind == Kind::kGet) {
        std::vector<GetMultiResult> results;
        if (!core::DecodeGetMultiResp(ack.payload, &results) ||
            results.size() != f.ops.size()) {
          fail_frame(f, Status::Corrupted("bad get multi response"));
          continue;
        }
        for (size_t i = 0; i < f.ops.size(); ++i) {
          if (results[i].status != PAPYRUSKV_SUCCESS) c_op_errors_->Inc();
          RecordOpLatency(f.ops[i]);
          f.ops[i].handle->CompleteResp(Status(results[i].status),
                                        std::move(results[i].resp));
        }
        continue;
      }
      std::vector<int32_t> statuses;
      if (!core::DecodePutBatchAck(ack.payload, &statuses) ||
          statuses.size() != f.records) {
        fail_frame(f, Status::Corrupted("bad put batch ack"));
        continue;
      }
      if (f.kind == Kind::kMigrate) {
        size_t failed = 0;
        for (int32_t st : statuses) failed += st != PAPYRUSKV_SUCCESS;
        if (failed > 0) {
          c_op_errors_->Inc(failed);
          PLOG_ERROR << "migration to rank " << f.dst << ": " << failed
                     << " of " << statuses.size() << " records not applied";
        }
        migration_frame_done(f);
        continue;
      }
      for (size_t i = 0; i < f.ops.size(); ++i) {
        if (statuses[i] != PAPYRUSKV_SUCCESS) c_op_errors_->Inc();
        RecordOpLatency(f.ops[i]);
        f.ops[i].handle->Complete(Status(statuses[i]));
      }
    }
  }
  // Retired before this cycle's frames, chunks and sealed tables are
  // freed: a fence waits for the acks, not for the lane's cleanup.
  RetireInflight(lane, count);
}

}  // namespace papyrus::async
