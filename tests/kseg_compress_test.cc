// Storage-class advice compression, end to end: every stage combination must
// decode back to byte-identical advice (decode(encode(x)) == x at the Advice
// level), the audit verdict must be bit-identical between compressed and raw
// streams across the full epoch/threads/prescreen matrix, and corrupted
// compressed containers must reject cleanly — mirroring
// tests/segment_corruption_test.cc for the v2 flagged format.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/check.h"
#include "src/apps/app.h"
#include "src/common/kcodec.h"
#include "src/common/segment.h"
#include "src/server/kseg_codec.h"
#include "src/server/rollover.h"
#include "src/server/server.h"
#include "src/server/shard.h"
#include "src/verifier/session.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

// The check loop over one container pair.
CheckResult CheckContainers(const std::vector<uint8_t>& trace_bytes,
                            const std::vector<uint8_t>& advice_bytes, uint64_t epoch_requests) {
  ContainerPairSource source(trace_bytes, advice_bytes);
  return CheckEpochs(&source, epoch_requests);
}

struct FixtureSpec {
  const char* name;
  const char* app;
  WorkloadKind kind;
  size_t requests;
  int concurrency;
  uint64_t epoch_requests;
};

// The same three workloads the record-golden fixtures pin: coverage of all
// advice components, hot-key contention, and cross-epoch references.
constexpr FixtureSpec kFixtures[] = {
    {"stacks120", "stacks", WorkloadKind::kMixed, 120, 10, 7},
    {"motd60", "motd", WorkloadKind::kWriteHeavy, 60, 6, 13},
    {"auction90", "auction", WorkloadKind::kAuctionMix, 90, 12, 9},
};

ServerRunResult RunFixtureWorkload(const FixtureSpec& spec) {
  WorkloadConfig wl;
  wl.app = spec.app;
  wl.kind = spec.kind;
  wl.requests = spec.requests;
  wl.seed = 7;
  wl.connections = spec.concurrency;
  std::vector<Value> inputs = GenerateWorkload(wl);

  AppSpec app = MakeAppByName(spec.app).value();
  ServerConfig config;
  config.concurrency = spec.concurrency;
  config.seed = 7;
  config.epoch_requests = spec.epoch_requests;
  Server server(*app.program, config);
  return server.Run(inputs);
}

std::vector<SegmentRecord> WalkFrames(const std::vector<uint8_t>& bytes) {
  std::string error;
  auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
  EXPECT_NE(reader, nullptr) << error;
  std::vector<SegmentRecord> frames;
  if (!reader) {
    return frames;
  }
  SegmentRecord rec;
  while (reader->Next(&rec)) {
    frames.push_back(rec);
  }
  EXPECT_TRUE(reader->ok()) << reader->error();
  return frames;
}

void ExpectSameFrame(const SegmentRecord& got, const SegmentRecord& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.flags, want.flags);
  EXPECT_EQ(got.payload, want.payload) << "epoch " << want.epoch;
}

class KsegCompressTest : public ::testing::TestWithParam<FixtureSpec> {};

// decode(encode(x)) == x, at the byte level of the raw encoding: every stage
// combination's frames decode to structures whose raw serialization equals
// the raw frame's payload exactly.
TEST_P(KsegCompressTest, AllStageCombinationsRoundTripByteIdentically) {
  const FixtureSpec& spec = GetParam();
  ServerRunResult run = RunFixtureWorkload(spec);
  EpochSlices slices = SliceRun(run.trace, run.advice, spec.epoch_requests);

  const std::vector<SegmentRecord> raw_trace = WalkFrames(EncodeTraceSegments(slices));
  const std::vector<SegmentRecord> raw_advice = WalkFrames(EncodeAdviceSegments(slices));
  // The K=1 shard file is one more container for the same epoch frames.
  const std::vector<ShardFile> shards =
      ShardRun(run.trace, run.advice, spec.epoch_requests, ShardSpec{});
  ASSERT_EQ(shards.size(), 1u);

  for (uint8_t flags = 0; flags <= kFrameFlagsKnownMask; ++flags) {
    const KsegCompression c = KsegCompression::FromFlags(flags);
    SCOPED_TRACE("stages=0x" + std::to_string(flags));

    std::vector<uint8_t> trace_bytes = EncodeTraceSegments(slices, c);
    std::vector<uint8_t> advice_bytes = EncodeAdviceSegments(slices, c);
    std::vector<SegmentRecord> trace_frames = WalkFrames(trace_bytes);
    std::vector<SegmentRecord> advice_frames = WalkFrames(advice_bytes);
    ASSERT_EQ(trace_frames.size(), raw_trace.size());
    ASSERT_EQ(advice_frames.size(), raw_advice.size());

    for (size_t i = 0; i < trace_frames.size(); ++i) {
      const SegmentRecord& rec = trace_frames[i];
      EXPECT_EQ(rec.epoch, raw_trace[i].epoch);
      // A frame never carries flags that were not requested; the block flag
      // may drop per-frame when blocking did not shrink the payload.
      EXPECT_EQ(rec.flags & ~c.Flags(), 0);
      auto window = DecodeTraceSegmentPayload(rec.payload, rec.flags);
      ASSERT_TRUE(window.has_value()) << "trace epoch " << rec.epoch;
      ByteWriter reserialized;
      SerializeTraceEvents(*window, &reserialized);
      EXPECT_EQ(reserialized.bytes(), raw_trace[i].payload) << "trace epoch " << rec.epoch;
    }
    for (size_t i = 0; i < advice_frames.size(); ++i) {
      const SegmentRecord& rec = advice_frames[i];
      EXPECT_EQ(rec.epoch, raw_advice[i].epoch);
      EXPECT_EQ(rec.flags & ~c.Flags(), 0);
      auto decoded = DecodeAdviceSegmentPayload(rec.payload, rec.flags);
      ASSERT_TRUE(decoded.has_value()) << "advice epoch " << rec.epoch;
      ByteWriter reserialized;
      decoded->advice.Serialize(&reserialized);
      decoded->imports.Serialize(&reserialized);
      EXPECT_EQ(reserialized.bytes(), raw_advice[i].payload) << "advice epoch " << rec.epoch;
    }

    // Behind its boundary frame, the shard file interleaves exactly the
    // stream containers' frames, and loads back to the same slices.
    const std::vector<uint8_t> shard_bytes = EncodeShardFile(shards[0], c);
    const std::vector<SegmentRecord> shard_frames = WalkFrames(shard_bytes);
    ASSERT_EQ(shard_frames.size(), 1 + trace_frames.size() + advice_frames.size());
    EXPECT_EQ(shard_frames[0].kind, SegmentKind::kShardBoundary);
    for (size_t i = 0; i < trace_frames.size(); ++i) {
      ExpectSameFrame(shard_frames[1 + 2 * i], trace_frames[i]);
      ExpectSameFrame(shard_frames[2 + 2 * i], advice_frames[i]);
    }
    ShardLoadResult loaded = LoadShardBytes(shard_bytes);
    ASSERT_TRUE(loaded.ok) << loaded.reason;
    ASSERT_EQ(loaded.file.slices.segments.size(), raw_trace.size());
    for (size_t i = 0; i < raw_trace.size(); ++i) {
      const EpochSegment& seg = loaded.file.slices.segments[i];
      EXPECT_EQ(seg.epoch, raw_trace[i].epoch);
      ByteWriter window;
      SerializeTraceEvents(seg.window, &window);
      EXPECT_EQ(window.bytes(), raw_trace[i].payload) << "shard trace epoch " << seg.epoch;
      ByteWriter advice;
      seg.advice.Serialize(&advice);
      seg.imports.Serialize(&advice);
      EXPECT_EQ(advice.bytes(), raw_advice[i].payload) << "shard advice epoch " << seg.epoch;
    }
  }
}

// The no-stage config must forward to the raw (v1) encoder bit for bit, and
// the full stack must actually shrink the advice stream.
TEST_P(KsegCompressTest, RawConfigIsByteIdenticalAndFullStackShrinks) {
  const FixtureSpec& spec = GetParam();
  ServerRunResult run = RunFixtureWorkload(spec);
  EpochSlices slices = SliceRun(run.trace, run.advice, spec.epoch_requests);

  EXPECT_EQ(EncodeAdviceSegments(slices, KsegCompression{}), EncodeAdviceSegments(slices));
  EXPECT_EQ(EncodeTraceSegments(slices, KsegCompression{}), EncodeTraceSegments(slices));

  const size_t raw = EncodeAdviceSegments(slices).size();
  const size_t lanes_dict =
      EncodeAdviceSegments(slices, KsegCompression{true, true, false}).size();
  const size_t full = EncodeAdviceSegments(slices, KsegCompression::All()).size();
  EXPECT_LT(lanes_dict, raw) << "lanes+dict must shrink the advice stream";
  EXPECT_LE(full, lanes_dict) << "the block stage never grows a stream (flag drops instead)";
  EXPECT_LT(full, raw / 2) << "full stack should at least halve advice bytes";
}

// The server-side emission path (ServerConfig::segment_compression) must
// produce exactly what the verifier-side slicer + compressed encoder produce.
TEST_P(KsegCompressTest, ServerEmissionMatchesSlicerEncoding) {
  const FixtureSpec& spec = GetParam();
  WorkloadConfig wl;
  wl.app = spec.app;
  wl.kind = spec.kind;
  wl.requests = spec.requests;
  wl.seed = 7;
  wl.connections = spec.concurrency;
  std::vector<Value> inputs = GenerateWorkload(wl);

  AppSpec app = MakeAppByName(spec.app).value();
  ServerConfig config;
  config.concurrency = spec.concurrency;
  config.seed = 7;
  config.epoch_requests = spec.epoch_requests;
  config.segment_compression = KsegCompression::All();
  Server server(*app.program, config);
  ServerRunResult run = server.Run(inputs);

  EpochSlices slices = SliceRun(run.trace, run.advice, spec.epoch_requests);
  EXPECT_EQ(run.trace_segments, EncodeTraceSegments(slices, KsegCompression::All()));
  EXPECT_EQ(run.advice_segments, EncodeAdviceSegments(slices, KsegCompression::All()));
}

INSTANTIATE_TEST_SUITE_P(Fixtures, KsegCompressTest, ::testing::ValuesIn(kFixtures),
                         [](const ::testing::TestParamInfo<FixtureSpec>& param) {
                           return std::string(param.param.name);
                         });

// Audit verdicts must be bit-identical between raw and compressed streams
// across epoch sizes x threads x prescreen — the compression layer is
// invisible to the audit's semantics.
TEST(KsegCompressDifferentialTest, VerdictsMatchRawAcrossMatrix) {
  struct AppRun {
    const char* app;
    WorkloadKind kind;
    size_t requests;
    int concurrency;
  };
  const AppRun runs[] = {
      {"stacks", WorkloadKind::kMixed, 60, 6},
      {"auction", WorkloadKind::kAuctionMix, 72, 12},
  };
  const uint64_t epoch_sizes[] = {1, 50, 0};  // 0 = one epoch holding everything.
  const unsigned thread_counts[] = {1, 4};

  for (const AppRun& r : runs) {
    WorkloadConfig wl;
    wl.app = r.app;
    wl.kind = r.kind;
    wl.requests = r.requests;
    wl.seed = 7;
    wl.connections = r.concurrency;
    std::vector<Value> inputs = GenerateWorkload(wl);
    AppSpec app = MakeAppByName(r.app).value();
    ServerConfig config;
    config.concurrency = r.concurrency;
    config.seed = 7;
    Server server(*app.program, config);
    ServerRunResult run = server.Run(inputs);

    for (uint64_t epoch_requests : epoch_sizes) {
      EpochSlices slices = SliceRun(run.trace, run.advice, epoch_requests);
      const std::vector<uint8_t> raw_trace = EncodeTraceSegments(slices);
      const std::vector<uint8_t> raw_advice = EncodeAdviceSegments(slices);
      const std::vector<uint8_t> comp_trace =
          EncodeTraceSegments(slices, KsegCompression::All());
      const std::vector<uint8_t> comp_advice =
          EncodeAdviceSegments(slices, KsegCompression::All());

      // Static model check: same outcome on both encodings.
      CheckResult raw_check = CheckContainers(raw_trace, raw_advice, epoch_requests);
      CheckResult comp_check = CheckContainers(comp_trace, comp_advice, epoch_requests);
      EXPECT_EQ(raw_check.ok, comp_check.ok);
      EXPECT_EQ(raw_check.reason, comp_check.reason);
      EXPECT_EQ(raw_check.rule, comp_check.rule);
      EXPECT_EQ(raw_check.epochs, comp_check.epochs);

      for (unsigned threads : thread_counts) {
        for (bool prescreen : {true, false}) {
          SCOPED_TRACE(std::string(r.app) + " epoch=" + std::to_string(epoch_requests) +
                       " threads=" + std::to_string(threads) +
                       " prescreen=" + std::to_string(prescreen));
          VerifierConfig vc;
          vc.threads = threads;
          vc.prescreen = prescreen;
          AuditSession raw_session(*app.program, vc, epoch_requests);
          AuditSession comp_session(*app.program, vc, epoch_requests);
          ContainerPairSource raw_source(raw_trace, raw_advice);
          ContainerPairSource comp_source(comp_trace, comp_advice);
          AuditResult raw_audit = raw_session.Run(&raw_source);
          AuditResult comp_audit = comp_session.Run(&comp_source);
          EXPECT_TRUE(raw_audit.accepted) << raw_audit.reason;
          EXPECT_EQ(raw_audit.accepted, comp_audit.accepted);
          EXPECT_EQ(raw_audit.reason, comp_audit.reason);
          EXPECT_EQ(raw_audit.rule, comp_audit.rule);
          EXPECT_EQ(raw_audit.diagnostics.size(), comp_audit.diagnostics.size());
          EXPECT_EQ(raw_session.next_epoch(), comp_session.next_epoch());
        }
      }
    }
  }
}

// --- Corruption hardening on compressed containers ---------------------------

struct CompressedPair {
  std::vector<uint8_t> trace_bytes;
  std::vector<uint8_t> advice_bytes;
  uint64_t epoch_requests = 4;
};

// Small but real: multiple epochs, multi-byte payloads, all stages on.
CompressedPair MakeCompressedPair() {
  WorkloadConfig wl;
  wl.app = "motd";
  wl.kind = WorkloadKind::kWriteHeavy;
  wl.requests = 12;
  wl.seed = 7;
  wl.connections = 3;
  std::vector<Value> inputs = GenerateWorkload(wl);
  AppSpec app = MakeMotdApp();
  ServerConfig config;
  config.concurrency = 3;
  config.seed = 7;
  Server server(*app.program, config);
  ServerRunResult run = server.Run(inputs);
  EpochSlices slices = SliceRun(run.trace, run.advice, 4);
  CompressedPair out;
  out.trace_bytes = EncodeTraceSegments(slices, KsegCompression::All());
  out.advice_bytes = EncodeAdviceSegments(slices, KsegCompression::All());
  return out;
}

// Truncating the compressed advice stream anywhere must reject through the
// KAR-SEG rules (and never crash or accept).
TEST(KsegCompressCorruptionTest, TruncationAtEveryByteRejects) {
  CompressedPair pair = MakeCompressedPair();
  CheckResult pristine =
      CheckContainers(pair.trace_bytes, pair.advice_bytes, pair.epoch_requests);
  ASSERT_TRUE(pristine.ok) << pristine.reason;

  for (size_t cut = 0; cut < pair.advice_bytes.size(); ++cut) {
    std::vector<uint8_t> truncated(pair.advice_bytes.begin(),
                                   pair.advice_bytes.begin() + static_cast<ptrdiff_t>(cut));
    CheckResult res = CheckContainers(pair.trace_bytes, truncated, pair.epoch_requests);
    EXPECT_FALSE(res.ok) << "truncated advice stream accepted at cut " << cut;
    EXPECT_EQ(res.rule.rfind("KAR-SEG", 0), 0u) << "cut " << cut << ": rule " << res.rule;
  }
}

// Bit-flip hardening, mirroring segment_corruption_test: flips inside any
// CRC-sealed payload (or the CRC itself) must hard-reject; flips in the
// framing bytes — including the flags byte, which the CRC does not cover —
// must produce a clean outcome, and a flags flip that still names known
// stages must be caught by the stage decoders (mis-staged payloads never
// parse on these containers).
TEST(KsegCompressCorruptionTest, BitFlipAtEveryPositionIsClean) {
  CompressedPair pair = MakeCompressedPair();
  const std::vector<uint8_t>& bytes = pair.advice_bytes;

  // Map each frame: [header_begin, payload_begin) is framing; the payload and
  // the 4 CRC bytes before it are sealed.
  std::vector<SegmentRecord> frames = WalkFrames(bytes);
  ASSERT_FALSE(frames.empty());
  std::vector<std::pair<size_t, size_t>> sealed;  // [begin, end) byte ranges.
  std::vector<size_t> flag_offsets;
  for (size_t i = 0; i < frames.size(); ++i) {
    size_t frame_end = i + 1 < frames.size() ? static_cast<size_t>(frames[i + 1].offset)
                                             : bytes.size();
    size_t payload_begin = frame_end - frames[i].payload.size();
    sealed.emplace_back(payload_begin - 4, frame_end);  // CRC + payload.
    flag_offsets.push_back(static_cast<size_t>(frames[i].offset) + 1);
  }
  auto in_sealed = [&](size_t pos) {
    for (const auto& [begin, end] : sealed) {
      if (pos >= begin && pos < end) return true;
    }
    return false;
  };
  auto is_flags_byte = [&](size_t pos) {
    for (size_t off : flag_offsets) {
      if (pos == off) return true;
    }
    return false;
  };

  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = bytes;
      flipped[pos] ^= static_cast<uint8_t>(1u << bit);

      // Lightweight walk: container layer + flag-aware payload decode. This
      // is the exact decode funnel the audit's cursor uses.
      std::string error;
      auto reader = SegmentReader::FromBytes(flipped.data(), flipped.size(), &error);
      bool rejected = reader == nullptr;
      if (reader) {
        SegmentRecord rec;
        while (reader->Next(&rec)) {
          if (rec.kind != SegmentKind::kAdvice ||
              !DecodeAdviceSegmentPayload(rec.payload, rec.flags).has_value()) {
            rejected = true;
            break;
          }
        }
        if (!reader->ok()) {
          rejected = true;
        }
      }
      if (in_sealed(pos)) {
        EXPECT_TRUE(rejected) << "flip at byte " << pos << " bit " << bit
                              << " survived the sealed region";
      } else if (is_flags_byte(pos)) {
        // The CRC does not cover the flags byte, and a flip inside the known
        // mask can re-stage the payload without breaking its parse structure
        // (a lanes flip reinterprets the same varints). The guarantee lives
        // one layer up: the static model check must reject the mis-staged
        // decode (garbled rids never match the trace).
        if (!rejected) {
          CheckResult res =
              CheckContainers(pair.trace_bytes, flipped, pair.epoch_requests);
          EXPECT_FALSE(res.ok)
              << "flags flip at byte " << pos << " bit " << bit << " was accepted";
        }
      }
      // Other framing flips may or may not be detectable here (an epoch flip
      // is caught by the sequencing rule, not the decoder); the requirement
      // is the clean walk above — no crash, no unbounded allocation.
    }
  }
}

// Under the dict stage one frame codes every value against one dictionary,
// so equal lists and maps have equal bytes there, and the decoder finds each
// repeat before building it: in every epoch of a stacks run (whose
// accumulators log their whole growing list on each write), each distinct
// container of the var logs is one node.
TEST(KsegCompressInternTest, DictCodedFrameDecodesEqualContainersToOneNode) {
  const FixtureSpec& spec = kFixtures[0];
  ServerRunResult run = RunFixtureWorkload(spec);
  EpochSlices slices = SliceRun(run.trace, run.advice, spec.epoch_requests);
  KsegCompression c;
  c.dict = true;
  c.lanes = true;
  size_t repeats = 0;
  for (const EpochSegment& seg : slices.segments) {
    ByteWriter w;
    EncodeCompactAdvicePayload(seg.advice, seg.imports, c, &w);
    auto decoded = DecodeCompactAdvicePayload(w.bytes().data(), w.size(), c);
    ASSERT_TRUE(decoded.has_value()) << "epoch " << seg.epoch;
    std::map<std::vector<uint8_t>, const void*> node_of;  // Raw encoding -> node.
    std::function<void(const Value&)> walk = [&](const Value& v) {
      if (!v.is_list() && !v.is_map()) {
        return;
      }
      const void* node = v.is_list() ? static_cast<const void*>(&v.AsList()) : &v.AsMap();
      ByteWriter raw;
      raw.WriteValue(v);
      auto [it, first] = node_of.emplace(raw.Take(), node);
      if (!first) {
        EXPECT_EQ(it->second, node) << "epoch " << seg.epoch << ": " << v.ToString();
        ++repeats;
        return;
      }
      if (v.is_list()) {
        for (const Value& item : v.AsList()) {
          walk(item);
        }
      } else {
        for (const auto& [key, item] : v.AsMap()) {
          walk(item);
        }
      }
    };
    for (const auto& [vid, log] : decoded->advice.var_logs) {
      for (const auto& [op, entry] : log) {
        walk(entry.value);
      }
    }
  }
  EXPECT_GT(repeats, 0u);
}

// Under the dict stage, strings and map keys inside values are dictionary
// refs, decoded through ByteReader::ReadValue's string-source form. It keeps
// the plain decoder's nesting bound: 200 KB of `05 01` and a value one level past kMaxValueDepth
// reject the payload without a crash, the bound itself round-trips, and a
// container repeated within one frame decodes to one node.
TEST(KsegCompressCorruptionTest, DictValueDecoderBoundsNestingAndInterns) {
  auto nest = [](int levels) {
    Value v = 1;
    for (int i = 0; i < levels; ++i) {
      v = i % 2 == 0 ? MakeList({v}) : MakeMap({{"k", v}});
    }
    return v;
  };
  for (bool lanes : {false, true}) {
    SCOPED_TRACE(lanes ? "dict+lanes" : "dict");
    KsegCompression c;
    c.dict = true;
    c.lanes = lanes;

    const Value entry = MakeMap({{"op", "set"}, {"text", "hello"}});
    const std::vector<TraceEvent> events = {
        {TraceEvent::Kind::kRequest, 1, entry},
        {TraceEvent::Kind::kResponse, 1, MakeList({entry, entry})},
        {TraceEvent::Kind::kRequest, 2, Value()},
    };
    ByteWriter w;
    EncodeCompactTracePayload(events, c, &w);
    auto decoded = DecodeCompactTracePayload(w.bytes().data(), w.size(), c);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->size(), events.size());
    EXPECT_EQ((*decoded)[1].payload, events[1].payload);
    EXPECT_EQ(&(*decoded)[0].payload.AsMap(), &(*decoded)[1].payload.AsList()[0].AsMap());
    EXPECT_EQ(&(*decoded)[0].payload.AsMap(), &(*decoded)[1].payload.AsList()[1].AsMap());

    // The last event's null payload is the frame's last byte; put a list
    // nested 100 000 deep in its place.
    std::vector<uint8_t> deep = w.bytes();
    ASSERT_EQ(deep.back(), static_cast<uint8_t>(Value::Kind::kNull));
    deep.pop_back();
    for (int i = 0; i < 100000; ++i) {
      deep.push_back(static_cast<uint8_t>(Value::Kind::kList));
      deep.push_back(1);
    }
    deep.push_back(static_cast<uint8_t>(Value::Kind::kNull));
    EXPECT_FALSE(DecodeCompactTracePayload(deep.data(), deep.size(), c).has_value());

    for (int levels : {kMaxValueDepth, kMaxValueDepth + 1}) {
      ByteWriter nw;
      EncodeCompactTracePayload({{TraceEvent::Kind::kRequest, 1, nest(levels)}}, c, &nw);
      auto got = DecodeCompactTracePayload(nw.bytes().data(), nw.size(), c);
      EXPECT_EQ(got.has_value(), levels <= kMaxValueDepth) << levels;
      if (got) {
        EXPECT_EQ((*got)[0].payload, nest(levels));
      }
    }
  }
}

}  // namespace
}  // namespace karousos
