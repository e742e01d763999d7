// Submission/completion RPC engine with same-destination request batching
// (DESIGN.md §9).  It owns no thread.
//
// Remote operations — sequential-mode puts and gets, relaxed-mode migration
// chunks (§2.4) and replication-stream appends (§12) — are submitted per
// destination rank, and consecutive same-kind operations for one
// destination coalesce into one `put_batch` / `get_multi` / `repl_append`
// frame.  Three parts, all under one leaf lock: per-destination chains
// (a queue and at most one frame in flight; each follower's replication
// stream has a chain of its own), a pending table of in-flight frames keyed
// by resp tag, and one deadline min-heap driving re-send with backoff,
// give-up and suspect marking (KvRuntime's retry policy, DESIGN.md §8).
//
// Who makes progress: a submitter whose chain is idle encodes and sends the
// head frame on its own thread.  A synchronous put or get on an idle chain
// runs whole on its caller's stack — no completion handle, no heap frame:
// it claims the chain, sends a one-op frame, awaits its own reply
// (KvRuntime::AwaitReply) and releases the chain through the same routine
// an engine frame's ack does.  Every other frame's reply carries a
// handler-routed resp tag and lands in this rank's handler mailbox: the
// handler passes it to OnAck, which completes the frame's ops and sends the
// chain's next frame, and runs ExpireDeadlines before each wait.  No thread
// blocks on a reply that belongs to another op; while a frame is in flight,
// submissions behind it accumulate, so batching needs no timer.
//
// Ordering (SDCB): frame N+1 of a chain goes on the wire only after frame
// N's ack, so the only frame that can be retried is the newest one sent to
// its destination, and a retry (the owner re-applies the same records) can
// never overwrite data a later frame committed.  Frames never mix op kinds
// or databases.  A frame unacknowledged after retry().max_attempts fails
// its ops with PAPYRUSKV_ERR_TIMEOUT and marks the peer suspect; the
// submissions queued behind it fail the same way *without* being sent.
// Per-op errors travel back in the batched ack.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/slice.h"
#include "common/status.h"
#include "core/wire.h"
#include "net/comm.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace papyrus::core {
class DbShard;
class KvRuntime;
}  // namespace papyrus::core

namespace papyrus::store {
class MemTable;
}  // namespace papyrus::store

namespace papyrus::async {

// Completion handle for one queued or async operation.  Created by the
// engine (or already-completed for ops resolved locally); waited on by
// exactly one consumer.  Inline sync calls have none.  Gets carry their
// result payload: either a resolved value (kValue — the op never touched
// the wire) or the owner's GetResp (kResp — the caller runs §2.7
// post-processing via DbShard::FinishGet).
class OpState {
 public:
  enum class Result { kNone, kValue, kResp };

  void Complete(Status s);
  void CompleteValue(Status s, std::string value);
  void CompleteResp(Status s, core::GetResp resp);

  // Blocks until completion; returns the operation's status.
  Status Wait();
  bool done() const;

  // Valid only after Wait() returned.
  Result result() const;
  const std::string& value() const { return value_; }
  // Moves the response out (single-consumer; call at most once).
  core::GetResp TakeResp() { return std::move(resp_); }

 private:
  // Leaf lock: guards one op's completion state only.
  mutable Mutex mu_{"async_op_mu"};
  CondVar cv_;
  bool done_ GUARDED_BY(mu_) = false;
  Status status_ GUARDED_BY(mu_);
  Result result_ GUARDED_BY(mu_) = Result::kNone;
  // Written once before done_ flips; read only after Wait() — no lock
  // needed on the consumer side.
  core::GetResp resp_;
  std::string value_;
};

using OpHandle = std::shared_ptr<OpState>;

// Already-completed handles for ops resolved without the engine (local
// puts, staged relaxed puts, gets decided from local memory).
OpHandle CompletedOp(Status s);
OpHandle CompletedValueOp(Status s, std::string value);

class AsyncPipeline {
 public:
  // Reads PAPYRUSKV_BATCH_MAX (ops per frame, default 256).
  explicit AsyncPipeline(core::KvRuntime& rt);

  // Enqueue one remote put/delete (sequential mode) for `dst`.
  OpHandle SubmitPut(int dst, uint32_t dbid, const Slice& key,
                     const Slice& value, bool tombstone);
  // Enqueue one remote get for `dst`; full_search forces the owner to
  // search its SSTables even for a same-group caller (§2.7 fallback).
  OpHandle SubmitGet(int dst, uint32_t dbid, const Slice& key,
                     bool full_search);

  // Synchronous remote put (sequential mode) and get (papyruskv_get's
  // network leg and the §2.7 full-search fallback).  On an idle chain the
  // calling thread sends a one-op frame itself and waits for its own reply
  // through KvRuntime::AwaitReply (fresh tag, bounded retry, suspect
  // marking, PAPYRUSKV_ERR_TIMEOUT), with no OpState; the chain stays busy
  // meanwhile, so later submissions to `dst` queue behind it and Drain()
  // waits for it.  A busy chain may carry an earlier put or migration to
  // `dst`, so the op then queues behind it and SDCB keeps read-your-writes.
  // GetSync leaves the owner's reply in *resp when the op succeeds.
  Status PutSync(int dst, uint32_t dbid, const Slice& key, const Slice& value,
                 bool tombstone);
  Status GetSync(int dst, uint32_t dbid, const Slice& key, bool full_search,
                 core::GetResp* resp);

  // Enqueue one replication-stream append for follower `dst` (DESIGN.md
  // §12).  Fire-and-forget — there is no OpHandle; the frame's ack (or
  // give-up) is delivered to the shard's Replicator as OnAppendAck/
  // OnAppendFailed from the handler thread.  Consecutive submissions with
  // the same epoch and contiguous sequence numbers coalesce into one
  // kOpReplAppend frame; `reset` starts a frame (resync marker).  The
  // stream has its own chain per follower: a quorum-deferred put ack must
  // never queue a repl frame behind it.
  void SubmitReplAppend(int dst, uint32_t dbid, uint32_t primary,
                        uint64_t epoch, uint64_t seq, bool reset,
                        uint64_t flushed_through, const Slice& key,
                        const Slice& value, bool tombstone);

  // Relaxed-mode migration of one sealed remote MemTable (§2.4): the
  // calling thread sorts its records by owner and submits one put_batch
  // chunk per owner.  Once every chunk is acked or given up (or at once on
  // a crashed rank, which sends nothing), db->MigrationFinished(sealed)
  // runs.  Back-pressure: with kDefaultQueueDepth sealed tables already
  // awaiting acks, the caller blocks until one finishes.  Drain() waits
  // for migrations too.
  void SubmitMigration(std::shared_ptr<core::DbShard> db,
                       std::shared_ptr<store::MemTable> sealed);

  // Blocks until every submitted op has completed (fence semantics for
  // async operations and migrations; see DbShard::Fence).
  void Drain();

  // ---- The handler thread's side of the engine ----
  // A reply whose tag is handler-routed (core::IsHandlerRespTag): completes
  // its frame and sends the chain's next one.  Late and duplicate replies
  // (no pending frame) are dropped.
  void OnAck(const net::Message& m);
  // Runs every deadline that has passed — re-send after backoff, give up —
  // and returns how long the handler may wait before calling again: until
  // the earliest deadline, and never longer than one reply timeout.  Any
  // frame another thread sends meanwhile has a deadline at least one reply
  // timeout away, so the handler always wakes in time for it.
  uint64_t ExpireDeadlines();

 private:
  // One sealed remote MemTable in flight: finished when its last chunk
  // resolves.
  struct Migration {
    std::shared_ptr<core::DbShard> db;
    std::shared_ptr<store::MemTable> mem;
    std::atomic<size_t> chunks_left{0};
  };

  enum class Kind { kPut, kGet, kRepl, kMigrate };

  struct Submission {
    Kind kind = Kind::kPut;
    uint32_t dbid = 0;
    std::string key;
    std::string value;
    bool tombstone = false;
    bool full_search = false;
    core::ReplAppendMeta repl;  // kRepl: this op's stream coordinates
    uint64_t submitted_at_us = 0;  // stamped at submission for op latency
    OpHandle handle;  // null for kRepl/kMigrate (no per-op waiter)
    std::shared_ptr<Migration> migration;  // kMigrate only
    std::vector<core::KvView> chunk;       // kMigrate: views into the table
  };

  // One wire frame: consecutive same-kind, same-db submissions for one
  // destination, capped at batch_max_ — or one owner's whole migration
  // chunk, however large (§2.4: one chunk per owner).
  struct Frame {
    int dst = 0;
    Kind kind = Kind::kPut;
    uint32_t dbid = 0;
    int op = 0;   // wire opcode
    int tag = 0;  // handler-routed resp tag; the pending-table key
    std::string payload;
    std::vector<Submission> ops;
    // The RPC leg of the whole frame, open until it is acked or given up:
    // each op the remote handler services becomes a flow-linked child.
    std::optional<obs::OpSpan> rpc;
    int attempt = 1;
    uint64_t deadline_us = 0;
    bool backoff = false;  // the deadline ends a backoff: re-send then
  };
  using FramePtr = std::shared_ptr<Frame>;

  // Invariant: a chain with queued submissions is busy (an idle chain's
  // first submission becomes its in-flight frame at once).
  struct Chain {
    std::deque<Submission> queue;
    bool busy = false;  // a frame (engine or inline) is in flight
  };

  // A put/get/repl submission stamped now; `flag` is a get's full_search,
  // else the tombstone bit.
  static Submission NewOp(Kind kind, uint32_t dbid, const Slice& key,
                          const Slice& value, bool flag);
  Chain& ChainFor(int dst, Kind kind) REQUIRES(mu_);
  // Queues `s`; on an idle chain sends its frame from this thread.
  // Returns s's handle.
  OpHandle Enqueue(int dst, Submission s);
  // The inline path of PutSync/GetSync.  ClaimIdleChain marks dst's idle
  // ops chain busy and counts the op outstanding; false (nothing changed)
  // when a frame is in flight.  CallInline then sends the one-op frame
  // `payload` (encoded with the fresh caller-routed `tag`), awaits its
  // reply into *reply and releases the chain; it returns the send status.
  bool ClaimIdleChain(int dst);
  Status CallInline(int dst, Kind kind, int tag, const std::string& payload,
                    net::Message* reply);
  // Counts a finished inline op in async.op_errors and async.*_op_us
  // (latency from `start`, a TickClock reading: cheaper than NowMicros);
  // returns `s`.
  Status RecordInline(Kind kind, uint64_t start, Status s);
  // Next frame of a busy chain whose previous frame resolved: its queued
  // head, or null (the chain goes idle).
  FramePtr NextFrameLocked(int dst, Kind kind) REQUIRES(mu_);
  // Sends `f` (if any); a crashed rank resolves it unsent instead.
  void Launch(FramePtr f);
  // Encodes `f` with a fresh handler-routed resp tag, enters it in the
  // pending table and sends its first attempt.
  void Transmit(FramePtr f);
  // A frame to `dst` was answered (`sent` ok) or not: in one section,
  // releases its chain and retires `settled` of its ops (those with no
  // handle left to complete).  Then the chain's next frame goes out, or
  // every submission queued behind a failed frame fails unsent with `sent`.
  void ReleaseChain(int dst, Kind kind, const Status& sent, size_t settled);
  // `f` was answered (with `reply`) or not: releases its chain, then
  // completes and retires f's ops.
  void Resolve(Frame& f, const Status& sent, const std::string& reply);
  // Completes f's ops from its reply payload, or fails all of them.
  void Complete(Frame& f, const std::string& reply);
  void Fail(Frame& f, const Status& s);
  // Counts `n` submissions as completed and wakes Drain().
  void Retire(size_t n);
  void PublishDepthLocked() REQUIRES(mu_);
  void MigrationChunkDone(const Submission& s);
  // Records submit→completion latency (async.put_op_us / async.get_op_us);
  // call immediately before completing the handle.
  void RecordOpLatency(const Submission& s);

  core::KvRuntime& rt_;
  size_t batch_max_ = 256;

  // Leaf lock: nothing is called under it that could take another lock,
  // send, or call back into a shard.
  Mutex mu_{"async_pipe_mu"};
  CondVar drain_cv_;  // outstanding_ reached zero / a migration finished
  // Per rank: [2 * dst] the ops chain, [2 * dst + 1] the repl stream.
  std::vector<Chain> chains_ GUARDED_BY(mu_);
  std::unordered_map<int, FramePtr> pending_ GUARDED_BY(mu_);
  // (deadline_us, tag); entries whose frame resolved or re-armed are stale
  // and skipped when popped.
  std::priority_queue<std::pair<uint64_t, int>,
                      std::vector<std::pair<uint64_t, int>>,
                      std::greater<std::pair<uint64_t, int>>>
      deadlines_ GUARDED_BY(mu_);
  // deadlines_'s top (or UINT64_MAX), written under mu_ and read without
  // it, so a handler with no engine frame in flight never takes mu_.
  std::atomic<uint64_t> next_deadline_us_{UINT64_MAX};
  size_t outstanding_ GUARDED_BY(mu_) = 0;  // submitted, not yet completed
  size_t queued_ GUARDED_BY(mu_) = 0;       // in chain queues, not framed
  size_t migrations_ GUARDED_BY(mu_) = 0;   // submitted, not yet finished

  // Cached metrics (resolved once; see obs/metrics.h).
  obs::Gauge* g_depth_;            // async.queue_depth
  obs::Gauge* g_inflight_;         // async.inflight (framed, unacked)
  obs::Histogram* h_put_batch_;    // async.batch_size
  obs::Histogram* h_get_batch_;    // async.get_batch_size
  obs::Histogram* h_repl_batch_;   // async.repl_batch_size
  obs::Counter* c_op_errors_;      // async.op_errors
  obs::Counter* c_frames_;         // async.frames
  obs::Counter* c_inline_gets_;    // async.inline_gets (GetSync, idle chain)
  obs::Gauge* g_migrations_;       // net.migration_queue_depth
  obs::Histogram* h_migration_us_;  // store.migration_us (submit → finish)
  // True per-op latency, submit → completion (the batched ack landing).
  // The kv.put_us/get_us histograms cover the synchronous paths; the async
  // entry points record only kv.*_submit_us at enqueue.
  obs::Histogram* h_put_op_us_;    // async.put_op_us
  obs::Histogram* h_get_op_us_;    // async.get_op_us
};

}  // namespace papyrus::async
