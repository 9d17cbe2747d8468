// The carry state's running byte count: CarryState keeps the serialized size
// of its resolution carries as it folds, so the resident-bytes gauge never
// re-serializes them. The count must equal what a fresh WriteResolutionCarries
// writes for the entries (its three table sizes aside) after every epoch of a
// streamed audit, after a checkpoint round trip, and after a slice that
// overwrites carried keys; and the session's gauge built on it must read what
// serializing everything afresh would.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/carry_state.h"
#include "src/audit/audit.h"
#include "src/verifier/session.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

struct ServedRun {
  AppSpec app;
  ServerRunResult server;
};

ServedRun Serve(const std::string& name, WorkloadKind kind, size_t requests) {
  ServedRun run{MakeAppByName(name).value(), {}};
  WorkloadConfig wl;
  wl.app = name;
  wl.kind = kind;
  wl.requests = requests;
  wl.connections = 8;
  ServerConfig config;
  config.concurrency = 8;
  Server server(*run.app.program, config);
  run.server = server.Run(GenerateWorkload(wl));
  return run;
}

size_t VarintBytes(uint64_t v) {
  ByteWriter w;
  w.WriteVarint(v);
  return w.size();
}

// The carries' entry bytes as a fresh WriteResolutionCarries writes them.
size_t FreshCarryBytes(const CarryState& carry) {
  ByteWriter w;
  carry.WriteResolutionCarries(&w);
  return w.size() - VarintBytes(carry.txn_sizes().size()) - VarintBytes(carry.puts().size()) -
         VarintBytes(carry.vars().size());
}

CarryState RoundTrip(const CarryState& carry) {
  ByteWriter w;
  carry.Serialize(&w);
  CkptReader in(w.bytes());
  CarryState restored;
  restored.Begin(0);
  restored.Deserialize(&in);
  EXPECT_TRUE(in.ok && in.r.AtEnd());
  return restored;
}

struct Case {
  const char* app;
  WorkloadKind kind;
  size_t requests;
  uint64_t epoch_size;
};

class CarryBytesTest : public ::testing::TestWithParam<Case> {};

// Folds every epoch the way the session does and checks the count against a
// fresh serialization after each one, and after a checkpoint round trip
// midway. The session's own gauge over the same slices must equal the peak
// of slice + imports + fresh carry bytes, with and without a resume midway.
TEST_P(CarryBytesTest, RunningCountMatchesAFreshSerializationEveryEpoch) {
  const Case& c = GetParam();
  ServedRun run = Serve(c.app, c.kind, c.requests);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, c.epoch_size);
  ASSERT_GT(slices.segments.size(), 2u);

  CarryState carry;
  carry.Begin(c.epoch_size);
  std::set<RequestId> trace_rids;
  size_t expected_peak = 0;
  const size_t middle = slices.segments.size() / 2;
  for (const EpochSegment& seg : slices.segments) {
    for (const TraceEvent& ev : seg.window) trace_rids.insert(ev.rid);
    carry.RegisterImports(seg.imports);
    ByteWriter w;
    seg.advice.Serialize(&w);
    seg.imports.Serialize(&w);
    expected_peak = std::max(expected_peak, w.size() + FreshCarryBytes(carry));
    carry.Fold(seg.advice, RidScope{&trace_rids, nullptr});
    ASSERT_EQ(carry.resolution_carry_bytes(), FreshCarryBytes(carry))
        << c.app << " after epoch " << seg.epoch;
    if (seg.epoch == middle) {
      CarryState restored = RoundTrip(carry);
      EXPECT_EQ(restored.resolution_carry_bytes(), carry.resolution_carry_bytes())
          << c.app << " restored at epoch " << seg.epoch;
    }
  }
  EXPECT_GT(carry.resolution_carry_bytes(), 0u);

  const VerifierConfig config{IsolationLevel::kSerializable, 1};
  AuditSession session(*run.app.program, config, c.epoch_size);
  for (const EpochSegment& seg : slices.segments) session.FeedEpoch(seg);
  EXPECT_EQ(session.peak_resident_advice_bytes(), expected_peak) << c.app;
  EXPECT_TRUE(session.Finish().accepted) << c.app;

  std::unique_ptr<AuditSession> resumed;
  {
    AuditSession first(*run.app.program, config, c.epoch_size);
    for (size_t e = 0; e <= middle; ++e) first.FeedEpoch(slices.segments[e]);
    std::string error;
    resumed = AuditSession::Restore(*run.app.program, config, first.SaveCheckpoint(), &error);
    ASSERT_NE(resumed, nullptr) << error;
  }
  for (size_t e = middle + 1; e < slices.segments.size(); ++e) {
    resumed->FeedEpoch(slices.segments[e]);
  }
  EXPECT_EQ(resumed->peak_resident_advice_bytes(), expected_peak) << c.app << " resumed";
  EXPECT_TRUE(resumed->Finish().accepted) << c.app;
}

INSTANTIATE_TEST_SUITE_P(
    Apps, CarryBytesTest,
    ::testing::Values(Case{"stacks", WorkloadKind::kMixed, 80, 7},
                      Case{"auction", WorkloadKind::kAuctionMix, 120, 9},
                      Case{"motd", WorkloadKind::kMixed, 60, 5}),
    [](const ::testing::TestParamInfo<Case>& param) { return std::string(param.param.app); });

// A slice that repeats carried keys overwrites their entries: the count must
// swap the old entry's bytes for the new one's, whether the entry grows (a
// longer PUT value), shrinks (a write turned read drops its value) or keeps
// its size (a transaction size rewritten to itself).
TEST(CarryOverwriteTest, OverwritingCarriedKeysKeepsTheCountExact) {
  ServedRun run = Serve("stacks", WorkloadKind::kMixed, 80);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 0);
  ASSERT_EQ(slices.segments.size(), 1u);
  const Advice& slice = slices.segments[0].advice;

  std::set<RequestId> trace_rids;
  for (const TraceEvent& ev : slices.segments[0].window) trace_rids.insert(ev.rid);
  const RidScope scope{&trace_rids, nullptr};
  CarryState carry;
  carry.Begin(0);
  carry.Fold(slice, scope);
  ASSERT_EQ(carry.resolution_carry_bytes(), FreshCarryBytes(carry));
  const size_t folded_once = carry.resolution_carry_bytes();

  // The same slice again: every key repeats with identical content.
  carry.Fold(slice, scope);
  EXPECT_EQ(carry.resolution_carry_bytes(), folded_once);
  EXPECT_EQ(carry.resolution_carry_bytes(), FreshCarryBytes(carry));

  Advice changed = slice;
  bool grew_put = false;
  for (auto& [txn, log] : changed.tx_logs) {
    for (TxOperation& op : log) {
      if (op.type == TxOpType::kPut && !grew_put) {
        op.put_value = Value(std::string(300, 'x'));
        grew_put = true;
      }
    }
  }
  bool dropped_write = false;
  for (auto& [vid, log] : changed.var_logs) {
    for (auto& [op, entry] : log) {
      if (entry.kind == VarLogEntry::Kind::kWrite && !dropped_write) {
        entry.kind = VarLogEntry::Kind::kRead;
        dropped_write = true;
      }
    }
  }
  ASSERT_TRUE(grew_put);
  ASSERT_TRUE(dropped_write);
  carry.Fold(changed, scope);
  EXPECT_NE(carry.resolution_carry_bytes(), folded_once);
  EXPECT_EQ(carry.resolution_carry_bytes(), FreshCarryBytes(carry));
  EXPECT_EQ(RoundTrip(carry).resolution_carry_bytes(), carry.resolution_carry_bytes());
}

}  // namespace
}  // namespace karousos
