// Wire protocol between rank runtimes.
//
// Paper §2.4/§2.6: the sending side (the RPC engine in src/async/, plus
// callers running their own request through KvRuntime::RequestReply) and the
// message handler (receiver side) exchange request/response messages over
// communicators private to the PapyrusKV runtime.  The message kinds are
// listed with WireOp below.
//
// Requests travel on the request communicator with tag = opcode.  Replies
// carry the tag the requester wrote into the request header, so concurrent
// requesting threads (app thread, handler, restart task) never steal each
// other's replies; the tag's range also picks the reply's route (see
// kHandlerRespTagBase).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"
#include "obs/trace.h"

namespace papyrus::core {

// ---- Trace-context header (optional) ---------------------------------------
// When the sender has an active sampled trace (obs::OpSpan), every message
// kind below is prefixed with
//
//   [u32 kTraceMagic][u64 trace_id][u64 span_id][u8 flags]
//
// ahead of its body.  Decoders peek the first word — absent magic means a
// no-context payload, so untraced frames carry no header bytes at all.  No
// honest body can start with the magic word (0x54524cff): every body opens
// with a small integer (db id, record count or stream epoch — UINT64_MAX,
// a promoted rank's probe answer, reads 0xffffffff) or with a 0/1 flag
// byte, and the GetResp bodies embedded in a GetMultiResp never carry a
// header.
// `flags` bit 0 = sampled; other bits reserved.
inline constexpr uint32_t kTraceMagic = 0x54524cffu;  // "\xffLRT" on the wire

// Appends the trace header to `out` when `ctx` is a live sampled context.
void PutTraceCtx(std::string* out, const obs::TraceContext& ctx);
// Consumes a leading trace header from `in` if present; fills `ctx` (left
// invalid when the payload carries no context).  Returns false
// only on a malformed (truncated) header.
bool GetTraceCtx(Slice* in, obs::TraceContext* ctx);

enum WireOp : int {
  // Runtime teardown for the handler loop (a loopback message).
  kOpShutdown = 1,
  // Batched submission/completion pipeline (src/async/, DESIGN.md §9):
  //   kOpPutBatch — N puts/deletes for one destination, acked by a single
  //       batched ack carrying one status per op.  It carries both
  //       sequential-mode puts (coalesced, §3.1) and relaxed-mode migration
  //       (one frame per sealed remote MemTable and owner, §2.4).  The ack
  //       is sent after application: that is what lets fence/barrier know
  //       all data has *landed*, not merely been sent;
  //   kOpGetMulti — N get requests for one destination, answered by one
  //       response carrying a full GetResp per key.  The request carries the
  //       caller's storage-group id; when it matches the owner's, the owner
  //       searches only its in-memory structures and returns `same_group`
  //       plus its live SSTable list so the caller can search the shared
  //       SSTables itself (§2.7).
  kOpPutBatch = 2,
  kOpGetMulti = 3,
  // Intra-group k-way replication (src/repl/, DESIGN.md §12):
  //   kOpReplAppend — a primary streams a run of committed ops (epoch +
  //       contiguous sequence numbers) to one follower, which applies them
  //       to its shadow MemTable and acks by (epoch, seq);
  //   kOpReplQuery — failover election: ask a follower how caught-up its
  //       shadow log is; with the promote flag set, tell the winning
  //       follower to replay its shadow tail and take over the primary's
  //       hash slots;
  //   kOpReplRead — read-from-replica: serve a get from the follower's
  //       shadow MemTable (PAPYRUSKV_READ_REPLICAS=1), falling back to the
  //       owner on a shadow miss.
  kOpReplAppend = 4,
  kOpReplQuery = 5,
  kOpReplRead = 6,
};

// Highest opcode value — sizing bound for per-opcode metric arrays.
inline constexpr int kOpMax = kOpReplRead;

// Response-communicator tags.  With retry-on-timeout (DESIGN.md §8) a fixed
// per-role tag is not enough: a retried request's reply could be satisfied
// by the *original* attempt's late reply, and the original's reply would
// then alias the next request from the same role.  Every request therefore
// carries a unique tag from KvRuntime::AllocRespTag(), starting at this
// floor; stale replies to abandoned tags sit harmlessly in the mailbox.
inline constexpr int kDynamicRespTagBase = 100;
static_assert(kOpMax < kDynamicRespTagBase,
              "opcode space must stay below the response-tag floor");
// Tags at or above this floor are *handler-routed*: the reply goes on the
// request communicator to the requester's handler, whose RPC engine
// (src/async/) matches it to its pending frame; lower tags go on the
// response communicator to a caller awaiting its own reply.
inline constexpr int kHandlerRespTagBase = 1 << 30;
inline bool IsHandlerRespTag(int tag) { return tag >= kHandlerRespTagBase; }

struct KvRecord {
  std::string key;
  std::string value;
  bool tombstone = false;
};

// A record whose key and value point into storage someone else keeps alive
// — a sealed MemTable, a Submission, a received payload.  The batch codecs
// encode from and decode into views, so a record is copied into the wire
// frame and out of it only where it is stored, never into an intermediate
// KvRecord.
struct KvView {
  Slice key;
  Slice value;
  bool tombstone = false;
};

// ---- GetResp ---------------------------------------------------------------
// [u8 found][u8 tombstone][u8 same_group][u64 latest_ssid]
// [u32 nssids][u64 ...][lp value]
//
// One key's answer, embedded per op in a GetMultiResp (never sent alone, so
// it carries no trace header of its own).
// `ssids` is the owner's exact live SSTable list (newest first) at response
// time, filled on a same-group memory miss.  The caller searches only these
// tables on the shared NVM: a stale reader cached from before an owner
// compaction can never be consulted, so purged tombstones cannot resurrect.
struct GetResp {
  bool found = false;
  bool tombstone = false;
  bool same_group = false;
  uint64_t latest_ssid = 0;
  std::vector<uint64_t> ssids;
  std::string value;
};
std::string EncodeGetResp(const GetResp& r);
bool DecodeGetResp(const Slice& payload, GetResp* r);

// ---- PutBatch --------------------------------------------------------------
// [trace hdr?][u32 dbid][u32 resp_tag][u32 count]
//   count × ([lp key][lp value][u8 tomb])
//
// Decoded records view `payload`, which must outlive them.
std::string EncodePutBatch(uint32_t dbid, uint32_t resp_tag,
                           std::span<const KvView> records,
                           const obs::TraceContext& trace_ctx = {});
bool DecodePutBatch(const Slice& payload, uint32_t* dbid, uint32_t* resp_tag,
                    std::vector<KvView>* records,
                    obs::TraceContext* trace_ctx = nullptr);

// ---- PutBatchAck -----------------------------------------------------------
// [trace hdr?][u32 count] count × [i32 status]
//
// One PAPYRUSKV_* code per op, in submission order: a partially failed
// batch surfaces exactly which ops failed (the batch as a whole is still
// acked — retry/timeout semantics are per batch, per-op errors per op).
std::string EncodePutBatchAck(const std::vector<int32_t>& statuses,
                              const obs::TraceContext& trace_ctx = {});
bool DecodePutBatchAck(const Slice& payload, std::vector<int32_t>* statuses,
                       obs::TraceContext* trace_ctx = nullptr);

// ---- GetMulti --------------------------------------------------------------
// [trace hdr?][u32 dbid][u32 resp_tag][u32 caller_group][u32 count]
//   count × ([lp key][u8 flags])
//
// flags bit 0 (kGetFullSearch): search the owner's SSTables even when the
// caller is in the owner's storage group — used by the caller's fallback
// re-query after a failed shared read (§2.7).
//
// Keys are views: an encoded op views the caller's key, a decoded one views
// `payload`, which must outlive it.
inline constexpr uint8_t kGetFullSearch = 0x01;
struct GetMultiOp {
  Slice key;
  bool full_search = false;
};
std::string EncodeGetMulti(uint32_t dbid, uint32_t resp_tag,
                           uint32_t caller_group,
                           std::span<const GetMultiOp> ops,
                           const obs::TraceContext& trace_ctx = {});
bool DecodeGetMulti(const Slice& payload, uint32_t* dbid, uint32_t* resp_tag,
                    uint32_t* caller_group, std::vector<GetMultiOp>* ops,
                    obs::TraceContext* trace_ctx = nullptr);

// ---- GetMultiResp ----------------------------------------------------------
// [trace hdr?][u32 count] count × ([i32 status][lp GetResp-body])
//
// Each entry embeds one length-prefixed GetResp body (no nested trace
// header).
struct GetMultiResult {
  int32_t status = PAPYRUSKV_SUCCESS;
  GetResp resp;
};
std::string EncodeGetMultiResp(const std::vector<GetMultiResult>& results,
                               const obs::TraceContext& trace_ctx = {});
bool DecodeGetMultiResp(const Slice& payload,
                        std::vector<GetMultiResult>* results,
                        obs::TraceContext* trace_ctx = nullptr);

// ---- ReplAppend ------------------------------------------------------------
// [trace hdr?][u32 dbid][u32 resp_tag][u32 primary][u64 epoch]
// [u64 first_seq][u64 flushed_through][u8 reset][u32 count]
//   count × ([lp key][lp value][u8 tomb])
//
// A primary's replication stream to one follower: `count` committed ops with
// contiguous sequence numbers first_seq..first_seq+count-1 under `epoch`.
// `reset` marks the first frame of a (re)synchronization: the follower
// discards its shadow state for (dbid, primary), adopts the frame's epoch,
// and applies from first_seq.  `flushed_through` is the primary's flush
// watermark — everything at or below it is on shared NVM, so the follower
// may trim its shadow log to entries above it.
struct ReplAppendMeta {
  uint32_t primary = 0;
  uint64_t epoch = 0;
  uint64_t first_seq = 0;
  uint64_t flushed_through = 0;
  bool reset = false;
};
// Decoded records view `payload`, as in PutBatch.
std::string EncodeReplAppend(uint32_t dbid, uint32_t resp_tag,
                             const ReplAppendMeta& meta,
                             std::span<const KvView> records,
                             const obs::TraceContext& trace_ctx = {});
bool DecodeReplAppend(const Slice& payload, uint32_t* dbid,
                      uint32_t* resp_tag, ReplAppendMeta* meta,
                      std::vector<KvView>* records,
                      obs::TraceContext* trace_ctx = nullptr);

// ---- ReplAppendAck ---------------------------------------------------------
// [trace hdr?][u64 epoch][u64 acked_seq][u8 ok]
//
// ok=1: the follower has applied every op up to and including acked_seq
// under `epoch`.  ok=0 is a NACK — epoch mismatch or sequence gap; `epoch`
// then reports the follower's current epoch and acked_seq its applied
// high-water mark, and the primary must resynchronize with a reset frame
// under a bumped epoch.
std::string EncodeReplAppendAck(uint64_t epoch, uint64_t acked_seq, bool ok,
                                const obs::TraceContext& trace_ctx = {});
bool DecodeReplAppendAck(const Slice& payload, uint64_t* epoch,
                         uint64_t* acked_seq, bool* ok,
                         obs::TraceContext* trace_ctx = nullptr);

// ---- ReplQuery -------------------------------------------------------------
// [trace hdr?][u32 dbid][u32 resp_tag][u32 primary][u8 promote]
//
// Failover election probe for `primary`'s partition.  promote=0 asks the
// follower to report its shadow progress; promote=1 tells the elected
// follower to replay its shadow log tail into its own store and start
// serving the dead primary's hash slots (idempotent).
std::string EncodeReplQuery(uint32_t dbid, uint32_t resp_tag,
                            uint32_t primary, bool promote,
                            const obs::TraceContext& trace_ctx = {});
bool DecodeReplQuery(const Slice& payload, uint32_t* dbid,
                     uint32_t* resp_tag, uint32_t* primary, bool* promote,
                     obs::TraceContext* trace_ctx = nullptr);

// ---- ReplQueryResp ---------------------------------------------------------
// [trace hdr?][u64 epoch][u64 last_seq][u8 in_sync]
//
// The follower's shadow progress for the queried primary: highest applied
// (epoch, seq) and whether it believes its shadow is a gap-free copy of the
// primary's stream (it has never NACKed without a later reset).
std::string EncodeReplQueryResp(uint64_t epoch, uint64_t last_seq,
                                bool in_sync,
                                const obs::TraceContext& trace_ctx = {});
bool DecodeReplQueryResp(const Slice& payload, uint64_t* epoch,
                         uint64_t* last_seq, bool* in_sync,
                         obs::TraceContext* trace_ctx = nullptr);

// ---- ReplRead --------------------------------------------------------------
// [trace hdr?][u32 dbid][u32 resp_tag][u32 primary][lp key]
//
// Read-from-replica: look `key` up in the follower's shadow MemTable for
// `primary`'s partition.  A shadow miss is not NOT_FOUND — the shadow only
// covers the stream since the last reset — so the response distinguishes
// "not served here" (ok=0, caller falls back to the owner) from an
// authoritative hit (ok=1, found/tombstone as usual).
std::string EncodeReplRead(uint32_t dbid, uint32_t resp_tag,
                           uint32_t primary, const Slice& key,
                           const obs::TraceContext& trace_ctx = {});
bool DecodeReplRead(const Slice& payload, uint32_t* dbid, uint32_t* resp_tag,
                    uint32_t* primary, std::string* key,
                    obs::TraceContext* trace_ctx = nullptr);

// ---- ReplReadResp ----------------------------------------------------------
// [trace hdr?][u8 ok][u8 found][u8 tombstone][lp value]
std::string EncodeReplReadResp(bool ok, bool found, bool tombstone,
                               const Slice& value,
                               const obs::TraceContext& trace_ctx = {});
bool DecodeReplReadResp(const Slice& payload, bool* ok, bool* found,
                        bool* tombstone, std::string* value,
                        obs::TraceContext* trace_ctx = nullptr);

}  // namespace papyrus::core
