// Wire format of the optional trace-context header (core/wire.h): payloads
// written without a context must carry no header bytes at all (so untraced
// traffic pays nothing for tracing), payloads with a context must
// round-trip it through every frame kind, and a truncated header must be
// rejected rather than misparsed as a frame body.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/coding.h"
#include "core/wire.h"

namespace papyrus::core {
namespace {

obs::TraceContext MakeCtx() {
  obs::TraceContext ctx;
  ctx.trace_id = 0x0002000000000007ull;  // rank-1-salted ids
  ctx.span_id = 0x0002000000000009ull;
  ctx.sampled = true;
  return ctx;
}

// Views of string literals, which outlive every use.
std::vector<KvView> SampleRecords() {
  return {KvView{"alpha", "value-a", false}, KvView{"beta", "", true}};
}

std::vector<GetMultiOp> SampleOps(const char* key) {  // views a literal
  std::vector<GetMultiOp> ops(1);
  ops[0].key = key;
  ops[0].full_search = true;
  return ops;
}

// Hand-built header-free GetMulti body with one full-search op.
std::string NoContextGetMulti(uint32_t dbid, uint32_t resp_tag,
                              uint32_t caller_group, const std::string& key) {
  std::string out;
  PutFixed32(&out, dbid);
  PutFixed32(&out, resp_tag);
  PutFixed32(&out, caller_group);
  PutFixed32(&out, 1);
  PutLengthPrefixed(&out, key);
  out.push_back(static_cast<char>(kGetFullSearch));
  return out;
}

TEST(TraceWireTest, NoContextEncodingIsLegacyByteIdentical) {
  // Default (invalid) context: the encoder adds nothing ahead of the body.
  const std::string wire = EncodePutBatch(7, 101, SampleRecords());
  std::string body;
  PutFixed32(&body, 7);
  PutFixed32(&body, 101);
  PutFixed32(&body, 2);
  PutLengthPrefixed(&body, "alpha");
  PutLengthPrefixed(&body, "value-a");
  body.push_back(0);
  PutLengthPrefixed(&body, "beta");
  PutLengthPrefixed(&body, "");
  body.push_back(1);
  EXPECT_EQ(wire, body);
  // An explicitly invalid context behaves the same.
  obs::TraceContext invalid;
  EXPECT_EQ(EncodePutBatch(7, 101, SampleRecords(), invalid), wire);
  EXPECT_EQ(EncodeGetMulti(3, 200, 2, SampleOps("needle")),
            NoContextGetMulti(3, 200, 2, "needle"));
}

TEST(TraceWireTest, LegacyPayloadDecodesWithInvalidContext) {
  // A header-free body decodes and reports no context.
  const std::string wire = NoContextGetMulti(3, 200, 0xffffffffu, "needle");
  uint32_t dbid = 0, resp_tag = 0, caller_group = 0;
  std::vector<GetMultiOp> ops;
  obs::TraceContext ctx = MakeCtx();  // must be reset by the decoder
  ASSERT_TRUE(DecodeGetMulti(wire, &dbid, &resp_tag, &caller_group, &ops,
                             &ctx));
  EXPECT_EQ(dbid, 3u);
  EXPECT_EQ(resp_tag, 200u);
  EXPECT_EQ(caller_group, 0xffffffffu);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].key, "needle");
  EXPECT_TRUE(ops[0].full_search);
  EXPECT_FALSE(ctx.valid());
}

TEST(TraceWireTest, ContextRoundTripsThroughEveryMessageKind) {
  const obs::TraceContext ctx = MakeCtx();

  {
    const auto records = SampleRecords();
    const std::string wire = EncodePutBatch(4, 120, records, ctx);
    uint32_t dbid = 0, resp_tag = 0;
    std::vector<KvView> out;
    obs::TraceContext got;
    ASSERT_TRUE(DecodePutBatch(wire, &dbid, &resp_tag, &out, &got));
    EXPECT_EQ(dbid, 4u);
    EXPECT_EQ(resp_tag, 120u);
    ASSERT_EQ(out.size(), records.size());
    EXPECT_EQ(out[0].key, "alpha");
    EXPECT_EQ(out[0].value, "value-a");
    EXPECT_TRUE(out[1].tombstone);
    EXPECT_TRUE(got.valid());
    EXPECT_EQ(got.trace_id, ctx.trace_id);
    EXPECT_EQ(got.span_id, ctx.span_id);
  }
  {
    const std::string wire = EncodeGetMulti(9, 130, 1, SampleOps("key"), ctx);
    uint32_t dbid = 0, resp_tag = 0, caller_group = 0;
    std::vector<GetMultiOp> ops;
    obs::TraceContext got;
    ASSERT_TRUE(
        DecodeGetMulti(wire, &dbid, &resp_tag, &caller_group, &ops, &got));
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].key, "key");
    EXPECT_EQ(got.trace_id, ctx.trace_id);
    EXPECT_EQ(got.span_id, ctx.span_id);
  }
  {
    GetMultiResult r;
    r.resp.found = true;
    r.resp.same_group = true;
    r.resp.latest_ssid = 42;
    r.resp.ssids = {42, 41};
    r.resp.value = "payload";
    const std::string wire = EncodeGetMultiResp({r}, ctx);
    std::vector<GetMultiResult> out;
    obs::TraceContext got;
    ASSERT_TRUE(DecodeGetMultiResp(wire, &out, &got));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].resp.found);
    EXPECT_TRUE(out[0].resp.same_group);
    EXPECT_EQ(out[0].resp.ssids, r.resp.ssids);
    EXPECT_EQ(out[0].resp.value, "payload");
    EXPECT_EQ(got.trace_id, ctx.trace_id);
    EXPECT_EQ(got.span_id, ctx.span_id);
  }
}

TEST(TraceWireTest, DecodersAcceptNullContextOut) {
  // Traced payload, context-oblivious caller: the header is consumed and
  // the body still decodes.
  const std::string wire = EncodeGetMulti(5, 140, 0, SampleOps("k"), MakeCtx());
  uint32_t dbid = 0, resp_tag = 0, caller_group = 0;
  std::vector<GetMultiOp> ops;
  ASSERT_TRUE(DecodeGetMulti(wire, &dbid, &resp_tag, &caller_group, &ops));
  EXPECT_EQ(dbid, 5u);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].key, "k");
}

TEST(TraceWireTest, HeaderFirstByteCannotCollideWithLegacyBodies) {
  // A traced frame starts with the magic word (first byte 0xff).  An
  // untraced body opens with a small integer or a 0/1 flag byte — never the
  // magic — so the sniff in GetTraceCtx is unambiguous, even for the
  // election probe answer of a promoted rank (epoch UINT64_MAX).
  for (const std::string& with_ctx :
       {EncodePutBatch(1, 100, SampleRecords(), MakeCtx()),
        EncodeGetMulti(1, 100, 0, SampleOps("k"), MakeCtx())}) {
    EXPECT_EQ(static_cast<unsigned char>(with_ctx[0]), 0xffu);
  }
  for (const std::string& no_ctx :
       {EncodePutBatch(1, 100, SampleRecords()),
        EncodePutBatchAck({PAPYRUSKV_SUCCESS}),
        EncodeGetMulti(1, 100, 0, SampleOps("k")),
        EncodeGetMultiResp({GetMultiResult{}}),
        EncodeReplAppend(1, 100, ReplAppendMeta{}, SampleRecords()),
        EncodeReplAppendAck(3, 9, true),
        EncodeReplQuery(1, 100, 2, true),
        EncodeReplQueryResp(UINT64_MAX, 9, true),
        EncodeReplRead(1, 100, 2, "k"),
        EncodeReplReadResp(true, true, false, "v")}) {
    ASSERT_GE(no_ctx.size(), 4u);
    EXPECT_NE(DecodeFixed32(no_ctx.data()), kTraceMagic);
    Slice in(no_ctx);
    obs::TraceContext ctx = MakeCtx();
    ASSERT_TRUE(GetTraceCtx(&in, &ctx));
    EXPECT_FALSE(ctx.valid());
    EXPECT_EQ(in.size(), no_ctx.size());  // nothing consumed
  }
}

TEST(TraceWireTest, TruncatedTraceHeaderIsRejected) {
  const std::string wire =
      EncodeGetMulti(5, 150, 0, SampleOps("key"), MakeCtx());
  // Any prefix that contains the magic but not the full header must fail
  // loudly instead of sliding the cursor into garbage.
  for (size_t len = 4; len < 21; ++len) {
    Slice in(wire.data(), len);
    obs::TraceContext ctx;
    EXPECT_FALSE(GetTraceCtx(&in, &ctx)) << "prefix length " << len;
  }
}

TEST(TraceWireTest, UnsampledContextEncodesNothing) {
  obs::TraceContext ctx = MakeCtx();
  ctx.sampled = false;
  EXPECT_EQ(EncodePutBatch(2, 160, SampleRecords(), ctx),
            EncodePutBatch(2, 160, SampleRecords()));
}

}  // namespace
}  // namespace papyrus::core
