#include "async/pipeline.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

#include "common/env.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/runtime.h"
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
// AsyncPipeline: submission
// ---------------------------------------------------------------------------

AsyncPipeline::AsyncPipeline(core::KvRuntime& rt)
    : rt_(rt), chains_(2 * static_cast<size_t>(rt.size())) {
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
  if (auto v = EnvInt("PAPYRUSKV_BATCH_MAX"); v && *v > 0) {
    batch_max_ = static_cast<size_t>(*v);
  }
}

AsyncPipeline::Chain& AsyncPipeline::ChainFor(int dst, Kind kind) {
  assert(dst != rt_.rank() && "the engine never targets the local rank");
  const size_t stream = kind == Kind::kRepl ? 1 : 0;
  return chains_[2 * static_cast<size_t>(dst) + stream];
}

void AsyncPipeline::PublishDepthLocked() {
  g_depth_->Set(static_cast<int64_t>(queued_));
  g_inflight_->Set(static_cast<int64_t>(outstanding_ - queued_));
}

void AsyncPipeline::RecordOpLatency(const Submission& s) {
  if (!s.handle) return;  // kRepl/kMigrate: no per-op waiter
  obs::Histogram* h = s.kind == Kind::kPut ? h_put_op_us_ : h_get_op_us_;
  h->Record(NowMicros() - s.submitted_at_us);
}

AsyncPipeline::Submission AsyncPipeline::NewOp(Kind kind, uint32_t dbid,
                                               const Slice& key,
                                               const Slice& value, bool flag) {
  Submission s;
  s.kind = kind;
  s.dbid = dbid;
  s.key = key.ToString();
  s.value = value.ToString();
  s.tombstone = kind != Kind::kGet && flag;
  s.full_search = kind == Kind::kGet && flag;
  s.submitted_at_us = NowMicros();
  if (kind != Kind::kRepl) s.handle = std::make_shared<OpState>();
  return s;
}

OpHandle AsyncPipeline::SubmitPut(int dst, uint32_t dbid, const Slice& key,
                                  const Slice& value, bool tombstone) {
  return Enqueue(dst, NewOp(Kind::kPut, dbid, key, value, tombstone));
}

OpHandle AsyncPipeline::SubmitGet(int dst, uint32_t dbid, const Slice& key,
                                  bool full_search) {
  return Enqueue(dst, NewOp(Kind::kGet, dbid, key, Slice(), full_search));
}

Status AsyncPipeline::PutSync(int dst, uint32_t dbid, const Slice& key,
                              const Slice& value, bool tombstone) {
  const uint64_t start = obs::TickClock::Now();
  if (!ClaimIdleChain(dst)) {
    return Enqueue(dst, NewOp(Kind::kPut, dbid, key, value, tombstone))
        ->Wait();
  }
  const KvView record{key, value, tombstone};
  const int tag = rt_.AllocRespTag();
  net::Message reply;
  Status s;
  {
    // The RPC span ends with the call, as an engine frame's ends at its ack.
    obs::OpSpan rpc("net", "put_batch.rpc", obs::OpSpan::kDetached);
    rpc.MarkFlowOut();
    s = CallInline(dst, Kind::kPut, tag,
                   core::EncodePutBatch(dbid, static_cast<uint32_t>(tag),
                                        {&record, 1}, rpc.context()),
                   &reply);
  }
  if (s.ok()) {
    std::vector<int32_t> statuses;
    s = core::DecodePutBatchAck(reply.payload, &statuses) &&
                statuses.size() == 1
            ? Status(statuses[0])
            : Status::Corrupted("bad put batch ack");
  }
  return RecordInline(Kind::kPut, start, std::move(s));
}

Status AsyncPipeline::GetSync(int dst, uint32_t dbid, const Slice& key,
                              bool full_search, core::GetResp* resp) {
  const uint64_t start = obs::TickClock::Now();
  if (!ClaimIdleChain(dst)) {
    OpHandle h =
        Enqueue(dst, NewOp(Kind::kGet, dbid, key, Slice(), full_search));
    Status st = h->Wait();
    if (st.ok()) *resp = h->TakeResp();
    return st;
  }
  const GetMultiOp op{key, full_search};
  const int tag = rt_.AllocRespTag();
  net::Message reply;
  Status s;
  {
    obs::OpSpan rpc("net", "get_multi.rpc", obs::OpSpan::kDetached);
    rpc.MarkFlowOut();
    s = CallInline(
        dst, Kind::kGet, tag,
        core::EncodeGetMulti(
            dbid, static_cast<uint32_t>(tag),
            static_cast<uint32_t>(rt_.layout().GroupOf(rt_.rank())),
            {&op, 1}, rpc.context()),
        &reply);
  }
  if (s.ok()) {
    std::vector<GetMultiResult> results;
    if (!core::DecodeGetMultiResp(reply.payload, &results) ||
        results.size() != 1) {
      s = Status::Corrupted("bad get multi response");
    } else {
      s = Status(results[0].status);
      if (s.ok()) *resp = std::move(results[0].resp);
    }
  }
  return RecordInline(Kind::kGet, start, std::move(s));
}

void AsyncPipeline::SubmitReplAppend(int dst, uint32_t dbid, uint32_t primary,
                                     uint64_t epoch, uint64_t seq, bool reset,
                                     uint64_t flushed_through,
                                     const Slice& key, const Slice& value,
                                     bool tombstone) {
  Submission s = NewOp(Kind::kRepl, dbid, key, value, tombstone);
  s.repl = core::ReplAppendMeta{primary, epoch, seq, flushed_through, reset};
  Enqueue(dst, std::move(s));
}

void AsyncPipeline::SubmitMigration(std::shared_ptr<core::DbShard> db,
                                    std::shared_ptr<store::MemTable> sealed) {
  auto m = std::make_shared<Migration>();
  m->db = std::move(db);
  m->mem = std::move(sealed);
  const uint64_t submitted_at_us = NowMicros();
  {
    MutexLock lock(&mu_);
    while (migrations_ >= core::kDefaultQueueDepth) drain_cv_.Wait(&mu_);
    g_migrations_->Set(static_cast<int64_t>(++migrations_));
  }
  // §2.4: "sorts the key-value pairs in the MemTable by the owner rank
  // number ... accumulates the key-value pairs per rank".
  auto chunks = m->db->CollectOwnerChunks(*m->mem);
  assert(!chunks.empty() && "a sealed remote MemTable is never empty");
  m->chunks_left = chunks.size();
  for (auto& [owner, records] : chunks) {
    assert(owner != rt_.rank() &&
           "remote MemTable must not hold self-owned pairs");
    Submission s;
    s.kind = Kind::kMigrate;
    s.dbid = m->db->id();
    s.submitted_at_us = submitted_at_us;
    s.migration = m;
    s.chunk = std::move(records);
    Enqueue(owner, std::move(s));
  }
}

OpHandle AsyncPipeline::Enqueue(int dst, Submission s) {
  OpHandle h = s.handle;
  FramePtr f;
  {
    MutexLock lock(&mu_);
    const Kind kind = s.kind;
    Chain& c = ChainFor(dst, kind);
    c.queue.push_back(std::move(s));
    ++queued_;
    ++outstanding_;
    if (!c.busy) f = NextFrameLocked(dst, kind);
    PublishDepthLocked();
  }
  Launch(std::move(f));
  return h;
}

bool AsyncPipeline::ClaimIdleChain(int dst) {
  MutexLock lock(&mu_);
  Chain& c = ChainFor(dst, Kind::kPut);
  if (c.busy) return false;
  c.busy = true;
  ++outstanding_;
  PublishDepthLocked();
  return true;
}

Status AsyncPipeline::CallInline(int dst, Kind kind, int tag,
                                 const std::string& payload,
                                 net::Message* reply) {
  Status sent;
  if (rt_.crashed()) {
    sent = Status(PAPYRUSKV_ERR, "rank crashed (simulated)");
  } else {
    const int op = kind == Kind::kGet ? core::kOpGetMulti : core::kOpPutBatch;
    if (kind == Kind::kGet) c_inline_gets_->Inc();
    (kind == Kind::kGet ? h_get_batch_ : h_put_batch_)->Record(1);
    c_frames_->Inc();
    rt_.BeginRequest(dst, op, payload);
    sent = rt_.AwaitReply(dst, op, payload, tag, reply);
  }
  ReleaseChain(dst, kind, sent, /*settled=*/1);
  return sent;
}

Status AsyncPipeline::RecordInline(Kind kind, uint64_t start, Status s) {
  if (!s.ok()) c_op_errors_->Inc();
  (kind == Kind::kGet ? h_get_op_us_ : h_put_op_us_)
      ->Record(obs::TickClock::ToMicros(obs::TickClock::Now() - start));
  return s;
}

AsyncPipeline::FramePtr AsyncPipeline::NextFrameLocked(int dst, Kind kind) {
  Chain& c = ChainFor(dst, kind);
  if (c.queue.empty()) {
    c.busy = false;
    return nullptr;
  }
  c.busy = true;
  auto f = std::make_shared<Frame>();
  f->dst = dst;
  f->kind = c.queue.front().kind;
  f->dbid = c.queue.front().dbid;
  while (!c.queue.empty() && f->ops.size() < batch_max_) {
    Submission& s = c.queue.front();
    if (s.kind != f->kind || s.dbid != f->dbid) break;
    if (f->kind == Kind::kMigrate && !f->ops.empty()) break;  // one chunk
    if (f->kind == Kind::kRepl && !f->ops.empty()) {
      // A replication frame is one contiguous run of one stream
      // incarnation: an epoch change, a sequence discontinuity, or a fresh
      // resync marker starts a new frame (the follower acks each frame by
      // its (epoch, first_seq..) coordinates).
      const core::ReplAppendMeta& prev = f->ops.back().repl;
      if (s.repl.reset || s.repl.epoch != prev.epoch ||
          s.repl.first_seq != prev.first_seq + 1) {
        break;
      }
    }
    f->ops.push_back(std::move(s));
    c.queue.pop_front();
  }
  queued_ -= f->ops.size();
  PublishDepthLocked();
  return f;
}

void AsyncPipeline::Launch(FramePtr f) {
  if (!f) return;
  if (rt_.crashed()) {
    // A crashed rank emits no traffic (§4.2 failure model); its ops still
    // complete so no waiter can hang.
    Resolve(*f, Status(PAPYRUSKV_ERR, "rank crashed (simulated)"), {});
    return;
  }
  Transmit(std::move(f));
}

void AsyncPipeline::Transmit(FramePtr fp) {
  Frame& f = *fp;
  f.tag = rt_.AllocRespTag(/*to_handler=*/true);
  const auto tag = static_cast<uint32_t>(f.tag);
  f.rpc.emplace(
      "net",
      f.kind == Kind::kPut       ? "put_batch.rpc"
      : f.kind == Kind::kGet     ? "get_multi.rpc"
      : f.kind == Kind::kMigrate ? "migration.rpc"
                                 : "repl_append.rpc",
      obs::OpSpan::kDetached);
  f.rpc->MarkFlowOut();
  // Views of the frame's submissions, which outlive the encode below.
  std::vector<KvView> records;
  if (f.kind == Kind::kPut || f.kind == Kind::kRepl) {
    records.reserve(f.ops.size());
    for (const Submission& s : f.ops) {
      records.push_back(KvView{s.key, s.value, s.tombstone});
    }
  }
  switch (f.kind) {
    case Kind::kPut:
      f.op = core::kOpPutBatch;
      h_put_batch_->Record(static_cast<uint64_t>(records.size()));
      f.payload =
          core::EncodePutBatch(f.dbid, tag, records, f.rpc->context());
      break;
    case Kind::kMigrate:
      f.op = core::kOpPutBatch;
      f.payload = core::EncodePutBatch(f.dbid, tag, f.ops.front().chunk,
                                        f.rpc->context());
      break;
    case Kind::kGet: {
      f.op = core::kOpGetMulti;
      std::vector<GetMultiOp> ops;
      ops.reserve(f.ops.size());
      for (const Submission& s : f.ops) {
        ops.push_back(GetMultiOp{s.key, s.full_search});
      }
      h_get_batch_->Record(static_cast<uint64_t>(ops.size()));
      f.payload = core::EncodeGetMulti(
          f.dbid, tag,
          static_cast<uint32_t>(rt_.layout().GroupOf(rt_.rank())), ops,
          f.rpc->context());
      break;
    }
    case Kind::kRepl: {
      f.op = core::kOpReplAppend;
      core::ReplAppendMeta meta = f.ops.front().repl;
      meta.flushed_through = f.ops.back().repl.flushed_through;
      h_repl_batch_->Record(static_cast<uint64_t>(records.size()));
      f.payload = core::EncodeReplAppend(f.dbid, tag, meta, records,
                                          f.rpc->context());
      break;
    }
  }
  c_frames_->Inc();
  {
    // Entered before the send, so the reply always finds its frame; fp
    // keeps it alive through the send below.
    MutexLock lock(&mu_);
    f.deadline_us = NowMicros() + rt_.retry().reply_timeout_us;
    pending_[f.tag] = fp;
    deadlines_.emplace(f.deadline_us, f.tag);
    if (f.deadline_us < next_deadline_us_.load(std::memory_order_relaxed)) {
      next_deadline_us_.store(f.deadline_us, std::memory_order_relaxed);
    }
  }
  rt_.BeginRequest(f.dst, f.op, f.payload);
}

// ---------------------------------------------------------------------------
// AsyncPipeline: completion (handler thread, or an inline caller)
// ---------------------------------------------------------------------------

void AsyncPipeline::OnAck(const net::Message& m) {
  FramePtr f;
  {
    MutexLock lock(&mu_);
    auto it = pending_.find(m.tag);
    if (it == pending_.end()) return;  // late or duplicate reply
    f = std::move(it->second);
    pending_.erase(it);
  }
  rt_.EndRequest(f->dst, f->op);
  Resolve(*f, Status::OK(), m.payload);
}

uint64_t AsyncPipeline::ExpireDeadlines() {
  const fault::RetryPolicy& policy = rt_.retry();
  const uint64_t now = NowMicros();
  uint64_t wait_us = policy.reply_timeout_us;
  const uint64_t next = next_deadline_us_.load(std::memory_order_relaxed);
  if (now < next) return std::min(wait_us, next - now);
  std::vector<FramePtr> retried;  // timed out; re-sent after a backoff
  std::vector<FramePtr> resend;   // backoff over
  std::vector<FramePtr> given_up;
  {
    MutexLock lock(&mu_);
    while (!deadlines_.empty()) {
      const auto [at, tag] = deadlines_.top();
      if (at > now) {
        wait_us = std::min(wait_us, at - now);
        break;
      }
      deadlines_.pop();
      auto it = pending_.find(tag);
      if (it == pending_.end() || it->second->deadline_us != at) continue;
      Frame& f = *it->second;
      if (f.backoff) {
        f.backoff = false;
        f.deadline_us = now + policy.reply_timeout_us;
        resend.push_back(it->second);
      } else if (f.attempt < policy.max_attempts) {
        f.backoff = true;
        f.deadline_us = now + policy.BackoffUs(f.attempt);
        retried.push_back(it->second);
        ++f.attempt;
      } else {
        given_up.push_back(std::move(it->second));
        pending_.erase(it);
        continue;
      }
      deadlines_.emplace(f.deadline_us, tag);
    }
    next_deadline_us_.store(deadlines_.empty() ? UINT64_MAX
                                               : deadlines_.top().first,
                            std::memory_order_relaxed);
  }
  for (const FramePtr& f : retried) {
    rt_.NoteRetry(f->dst, f->op, f->attempt - 1);
  }
  for (const FramePtr& f : resend) rt_.SendRequest(f->dst, f->op, f->payload);
  for (const FramePtr& f : given_up) {
    Resolve(*f, rt_.GiveUp(f->dst, f->op), {});
  }
  return wait_us;
}

void AsyncPipeline::ReleaseChain(int dst, Kind kind, const Status& sent,
                                 size_t settled) {
  FramePtr next;
  std::vector<Submission> tail;  // unlike a deque, allocates only if filled
  bool drained = false;
  {
    MutexLock lock(&mu_);
    if (sent.ok()) {
      next = NextFrameLocked(dst, kind);
    } else {
      // The submissions queued behind an unacked frame fail unsent: it may
      // still sit unapplied in the peer's mailbox, and sending past it
      // could commit data out of submission order.
      Chain& c = ChainFor(dst, kind);
      tail.assign(std::make_move_iterator(c.queue.begin()),
                  std::make_move_iterator(c.queue.end()));
      c.queue.clear();
      queued_ -= tail.size();
      c.busy = false;
    }
    outstanding_ -= settled;
    PublishDepthLocked();
    drained = outstanding_ == 0;
  }
  if (drained) drain_cv_.NotifyAll();
  // The ack proves the owner applied this frame; the next frame in this
  // destination's chain may now go on the wire.
  Launch(std::move(next));
  if (tail.empty()) return;
  for (Submission& sub : tail) {
    Frame unsent;
    unsent.dst = dst;
    unsent.kind = sub.kind;
    unsent.dbid = sub.dbid;
    unsent.ops.push_back(std::move(sub));
    Fail(unsent, sent);
  }
  Retire(tail.size());
}

void AsyncPipeline::Resolve(Frame& f, const Status& sent,
                            const std::string& reply) {
  ReleaseChain(f.dst, f.kind, sent, /*settled=*/0);
  f.rpc.reset();  // close the frame's RPC span at ack (or give-up) time
  if (sent.ok()) {
    Complete(f, reply);
  } else {
    Fail(f, sent);
  }
  Retire(f.ops.size());
}

void AsyncPipeline::Complete(Frame& f, const std::string& reply) {
  switch (f.kind) {
    case Kind::kRepl: {
      uint64_t epoch = 0;
      uint64_t acked_seq = 0;
      bool ok = false;
      if (!core::DecodeReplAppendAck(reply, &epoch, &acked_seq, &ok)) {
        Fail(f, Status::Corrupted("bad repl append ack"));
        return;
      }
      // Hand the follower's (epoch, seq) progress — or its NACK — to the
      // shard's replicator; a NACK triggers a resync pump, whose
      // submissions queue on this follower's chain.
      if (core::DbShardPtr db = rt_.Find(static_cast<int>(f.dbid))) {
        if (repl::Replicator* r = db->replicator()) {
          r->OnAppendAck(f.dst, epoch, acked_seq, ok);
        }
      }
      return;
    }
    case Kind::kGet: {
      std::vector<GetMultiResult> results;
      if (!core::DecodeGetMultiResp(reply, &results) ||
          results.size() != f.ops.size()) {
        Fail(f, Status::Corrupted("bad get multi response"));
        return;
      }
      for (size_t i = 0; i < f.ops.size(); ++i) {
        if (results[i].status != PAPYRUSKV_SUCCESS) c_op_errors_->Inc();
        RecordOpLatency(f.ops[i]);
        f.ops[i].handle->CompleteResp(Status(results[i].status),
                                      std::move(results[i].resp));
      }
      return;
    }
    case Kind::kPut:
    case Kind::kMigrate: {
      const size_t records = f.kind == Kind::kMigrate
                                 ? f.ops.front().chunk.size()
                                 : f.ops.size();
      std::vector<int32_t> statuses;
      if (!core::DecodePutBatchAck(reply, &statuses) ||
          statuses.size() != records) {
        Fail(f, Status::Corrupted("bad put batch ack"));
        return;
      }
      if (f.kind == Kind::kMigrate) {
        size_t failed = 0;
        for (int32_t st : statuses) failed += st != PAPYRUSKV_SUCCESS;
        if (failed > 0) {
          c_op_errors_->Inc(failed);
          PLOG_ERROR << "migration to rank " << f.dst << ": " << failed
                     << " of " << statuses.size() << " records not applied";
        }
        MigrationChunkDone(f.ops.front());
        return;
      }
      for (size_t i = 0; i < f.ops.size(); ++i) {
        if (statuses[i] != PAPYRUSKV_SUCCESS) c_op_errors_->Inc();
        RecordOpLatency(f.ops[i]);
        f.ops[i].handle->Complete(Status(statuses[i]));
      }
      return;
    }
  }
}

// Completes every op of a failed frame with one shared status; a failed
// replication frame instead fails the follower out of the shard's quorum
// accounting (unless this rank crashed: its stream dies with it), and a
// failed migration chunk just resolves its share of the migration.
void AsyncPipeline::Fail(Frame& f, const Status& s) {
  if (f.kind == Kind::kMigrate) {
    MigrationChunkDone(f.ops.front());
    return;
  }
  if (f.kind == Kind::kRepl) {
    c_op_errors_->Inc();
    if (rt_.crashed()) return;
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
}

void AsyncPipeline::MigrationChunkDone(const Submission& s) {
  Migration& m = *s.migration;
  if (m.chunks_left.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // The sealed table leaves imm_remote_ only now: until every owner acked
  // (or was given up on), gets still find the staged pairs there.
  m.db->MigrationFinished(m.mem);
  h_migration_us_->Record(NowMicros() - s.submitted_at_us);
  {
    MutexLock lock(&mu_);
    g_migrations_->Set(static_cast<int64_t>(--migrations_));
  }
  drain_cv_.NotifyAll();  // wakes a submitter blocked on the bound
}

void AsyncPipeline::Retire(size_t n) {
  bool drained = false;
  {
    MutexLock lock(&mu_);
    outstanding_ -= n;
    PublishDepthLocked();
    drained = outstanding_ == 0;
  }
  if (drained) drain_cv_.NotifyAll();
}

void AsyncPipeline::Drain() {
  MutexLock lock(&mu_);
  while (outstanding_ > 0) drain_cv_.Wait(&mu_);
}

}  // namespace papyrus::async
