// Streaming model checker tests: every checked-in KAR-SEG fixture must be
// rejected under its own rule, clean streams must check clean at every epoch
// size, the fast-reject pre-screen must stop a poisoned stream at the epoch
// where the defect lands, prescreen on/off must be verdict-identical on
// honest runs, checker and audit must agree diagnostic for diagnostic (the
// first fault of a damaged container included), and the carry state must
// survive a checkpoint round trip.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/check.h"
#include "src/audit/audit.h"
#include "src/verifier/session.h"
#include "src/workload/workload.h"
#include "tests/support/kseg_mutate.h"

namespace karousos {
namespace {

// The fixture run's shape (tools/make_lint_fixture.cc): stacks, 40 requests,
// epoch size 7.
constexpr uint64_t kFixtureEpochSize = 7;

std::vector<uint8_t> ReadFixture(const std::string& name) {
  std::string path = std::string(KAROUSOS_FIXTURE_DIR) + "/seg/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

struct HonestRun {
  AppSpec app;
  ServerRunResult server;
};

HonestRun RunStacks(size_t requests = 63, int concurrency = 6) {
  HonestRun run{MakeStacksApp(), {}};
  WorkloadConfig wl;
  wl.app = "stacks";
  wl.kind = WorkloadKind::kMixed;
  wl.requests = requests;
  wl.seed = 7;
  ServerConfig config;
  config.concurrency = concurrency;
  Server server(*run.app.program, config);
  run.server = server.Run(GenerateWorkload(wl));
  return run;
}

// The check loop and the audit loop over a container pair.
CheckResult CheckContainers(const std::vector<uint8_t>& trace_bytes,
                            const std::vector<uint8_t>& advice_bytes, uint64_t epoch_size) {
  ContainerPairSource source(trace_bytes, advice_bytes);
  return CheckEpochs(&source, epoch_size);
}

AuditResult AuditContainers(const std::vector<uint8_t>& trace_bytes,
                            const std::vector<uint8_t>& advice_bytes, uint64_t epoch_size) {
  AppSpec app = MakeStacksApp();
  AuditSession session(*app.program, VerifierConfig{IsolationLevel::kSerializable, 1},
                       epoch_size);
  ContainerPairSource source(trace_bytes, advice_bytes);
  return session.Run(&source);
}

// --- Per-rule fixtures ------------------------------------------------------

class SegRuleFixture : public ::testing::TestWithParam<const char*> {};

TEST_P(SegRuleFixture, CheckerReportsThePlantedRule) {
  const std::string rule = GetParam();
  std::string stem = rule;
  for (char& c : stem) {
    c = static_cast<char>(std::tolower(c));
  }
  std::vector<uint8_t> trace_bytes = ReadFixture(stem + ".trace.kseg");
  std::vector<uint8_t> advice_bytes = ReadFixture(stem + ".advice.kseg");
  ASSERT_FALSE(trace_bytes.empty());
  ASSERT_FALSE(advice_bytes.empty());

  CheckResult check = CheckContainers(trace_bytes, advice_bytes, kFixtureEpochSize);
  EXPECT_FALSE(check.ok) << "fixture for " << rule << " checked clean";
  EXPECT_EQ(check.rule, rule) << check.reason;
  EXPECT_FALSE(check.reason.empty());

  // The full audit must reject too, and where it names a rule it must be the
  // same one — the pre-screen fires before any replay could decide otherwise.
  // Checker and audit run the same rules over the same carry state, so where
  // the audit names a rule they also agree on the reason and on every
  // diagnostic.
  AuditResult audited = AuditContainers(trace_bytes, advice_bytes, kFixtureEpochSize);
  EXPECT_FALSE(audited.accepted) << "audit accepted the " << rule << " fixture";
  if (!audited.rule.empty()) {
    EXPECT_EQ(audited.rule, rule) << audited.reason;
    EXPECT_EQ(audited.reason, check.reason);
    ASSERT_EQ(audited.diagnostics.size(), check.diagnostics.size());
    for (size_t i = 0; i < check.diagnostics.size(); ++i) {
      EXPECT_EQ(audited.diagnostics[i].Format(), check.diagnostics[i].Format())
          << "diagnostic " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRules, SegRuleFixture,
                         ::testing::Values("KAR-SEG-001", "KAR-SEG-002", "KAR-SEG-003",
                                           "KAR-SEG-004", "KAR-SEG-005", "KAR-SEG-006",
                                           "KAR-SEG-007", "KAR-SEG-008", "KAR-SEG-009",
                                           "KAR-SEG-010"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           std::string name = param.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- Clean streams ----------------------------------------------------------

TEST(SegmentCheckTest, CleanStreamChecksCleanAtEveryEpochSize) {
  HonestRun run = RunStacks();
  for (uint64_t epoch_size : {uint64_t{1}, uint64_t{7}, uint64_t{0}}) {
    SliceSource source(SliceRun(run.server.trace, run.server.advice, epoch_size));
    CheckResult r = CheckEpochs(&source, epoch_size);
    EXPECT_TRUE(r.ok) << "epoch size " << epoch_size << ": " << r.reason;
    EXPECT_TRUE(r.diagnostics.empty());
    EXPECT_EQ(r.rule, "");
  }
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  CheckResult r = CheckContainers(EncodeTraceSegments(slices), EncodeAdviceSegments(slices), 7);
  EXPECT_TRUE(r.ok) << r.reason;
  EXPECT_EQ(r.epochs, slices.segments.size());
  EXPECT_EQ(r.frames, 2 * slices.segments.size());
}

// --- Prescreen equivalence on honest runs -----------------------------------

TEST(SegmentCheckTest, PrescreenOffMatchesOnForHonestRuns) {
  HonestRun run = RunStacks();
  for (uint64_t epoch_size : {uint64_t{1}, uint64_t{50}, uint64_t{0}}) {
    VerifierConfig on{IsolationLevel::kSerializable, 1};
    VerifierConfig off = on;
    off.prescreen = false;
    const auto audit = [&](const VerifierConfig& config) {
      AuditSession session(*run.app.program, config, epoch_size);
      SliceSource source(SliceRun(run.server.trace, run.server.advice, epoch_size));
      return session.Run(&source);
    };
    AuditResult with = audit(on);
    AuditResult without = audit(off);
    EXPECT_TRUE(with.accepted) << with.reason;
    EXPECT_EQ(with.accepted, without.accepted) << "epoch size " << epoch_size;
    EXPECT_EQ(with.reason, without.reason);
    EXPECT_EQ(with.rule, without.rule);
    ASSERT_EQ(with.diagnostics.size(), without.diagnostics.size());
    for (size_t i = 0; i < with.diagnostics.size(); ++i) {
      EXPECT_EQ(with.diagnostics[i].Format(), without.diagnostics[i].Format());
    }
  }
}

// --- Fast reject mid-stream -------------------------------------------------

// A cross-epoch defect planted into epoch 2 must fix the verdict the moment
// epoch 2 is fed — the pre-screen decides before that epoch re-executes, and
// later epochs are never consumed.
TEST(SegmentCheckTest, FastRejectDecidesAtThePoisonedEpoch) {
  HonestRun run = RunStacks();
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 4u);
  ASSERT_FALSE(slices.segments[0].advice.opcounts.empty());
  slices.segments[2].advice.opcounts.insert(*slices.segments[0].advice.opcounts.begin());

  VerifierConfig config{IsolationLevel::kSerializable, 1};
  AuditSession session(*run.app.program, config, 7);
  EXPECT_TRUE(session.FeedEpoch(slices.segments[0]));
  EXPECT_TRUE(session.FeedEpoch(slices.segments[1]));
  EXPECT_FALSE(session.FeedEpoch(slices.segments[2]));  // Decided here.
  EXPECT_TRUE(session.decided());
  AuditResult result = session.Finish();
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.rule, kKarSeg005) << result.reason;

  // The standalone checker agrees, rule for rule.
  SegmentChecker checker(7);
  EXPECT_TRUE(checker.CheckEpoch(slices.segments[0]));
  EXPECT_TRUE(checker.CheckEpoch(slices.segments[1]));
  EXPECT_FALSE(checker.CheckEpoch(slices.segments[2]));
  CheckResult check = checker.Finish();
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.rule, kKarSeg005);
}

// --- First fault on a damaged container --------------------------------------

// A cross-epoch defect in epoch 1 plus a CRC-damaged last advice frame. Both
// loops judge the stream in epoch order, so the check and the audit report
// the epoch-1 fault, identically, and neither reads the damaged frame.
TEST(SegmentCheckTest, CheckAndAuditReportTheSameFirstFault) {
  HonestRun run = RunStacks(60);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 3u);
  ASSERT_FALSE(slices.segments[0].advice.opcounts.empty());
  slices.segments[1].advice.opcounts.insert(*slices.segments[0].advice.opcounts.begin());
  std::vector<uint8_t> trace_bytes = EncodeTraceSegments(slices);
  std::vector<uint8_t> advice_bytes = EncodeAdviceSegments(slices);
  advice_bytes.back() ^= 0x01;  // The last byte of the last advice frame's payload.

  CheckResult check = CheckContainers(trace_bytes, advice_bytes, 7);
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.rule, kKarSeg005) << check.reason;
  EXPECT_EQ(check.frames, 4u);

  AuditSession session(*run.app.program, VerifierConfig{IsolationLevel::kSerializable, 1}, 7);
  ContainerPairSource source(trace_bytes, advice_bytes);
  AuditResult audited = session.Run(&source);
  EXPECT_FALSE(audited.accepted);
  EXPECT_EQ(audited.rule, kKarSeg005) << audited.reason;
  EXPECT_EQ(audited.reason, check.reason);
  ASSERT_EQ(audited.diagnostics.size(), check.diagnostics.size());
  for (size_t i = 0; i < check.diagnostics.size(); ++i) {
    EXPECT_EQ(audited.diagnostics[i].Format(), check.diagnostics[i].Format())
        << "diagnostic " << i;
  }
  // Decided at epoch 1: epoch 2's frames, let alone the damaged one, were
  // never read.
  EXPECT_EQ(session.next_epoch(), 2u);
  EXPECT_EQ(source.frames(), 4u);
}

// --- Checkpoint round trip --------------------------------------------------

// The carried state the pre-screen reads must survive SaveCheckpoint/Restore:
// a defect whose evidence straddles the restore point must still reject under
// its rule in the restored session.
struct CarriedDefect {
  std::string name;
  EpochSlices slices;
  size_t restore_after = 0;  // Epochs fed before the checkpoint.
  const char* rule = nullptr;
};

std::vector<CarriedDefect> CarriedDefects(const HonestRun& run) {
  std::vector<CarriedDefect> out;

  // A claim first made in epoch 0, re-declared by the last epoch: the restored
  // session must remember the opcount table.
  CarriedDefect redeclared{"opcount-redeclared", SliceRun(run.server.trace, run.server.advice, 7),
                           2, kKarSeg005};
  std::vector<EpochSegment>& segments = redeclared.slices.segments;
  EXPECT_GE(segments.size(), 4u);
  EXPECT_FALSE(segments[0].advice.opcounts.empty());
  segments.back().advice.opcounts.insert(*segments[0].advice.opcounts.begin());
  out.push_back(std::move(redeclared));

  // A lying forward import (the fuzz corpus's tampered var-import value),
  // restored between the epoch that registered it and the epoch it points
  // at: the restored session must still hold the import and the epoch that
  // registered it, and reject when the target arrives. Some tampered values
  // are consumed (and rejected) by their own epoch's replay; the first whose
  // registering epochs replay clean is the one that needs the carry.
  for (const KsegMutation& m : BuildMutationCorpus(run.server.trace, run.server.advice, 7)) {
    if (m.name.rfind("slice:tamper-var-import[", 0) != 0) {
      continue;
    }
    EpochSlices slices;
    ContainerPairSource source(m.trace_bytes, m.advice_bytes);
    while (const EpochSegment* segment = source.Next()) {
      slices.segments.push_back(*segment);
    }
    EXPECT_FALSE(source.finding().has_value()) << m.name;
    for (size_t e = 0; e < slices.segments.size(); ++e) {
      for (const auto& imp : slices.segments[e].imports.var_entries) {
        if (imp.value != Value("tampered-import") || EpochOfRid(imp.op.rid, 7) <= e) {
          continue;
        }
        AuditSession probe(*run.app.program, VerifierConfig{IsolationLevel::kSerializable, 1}, 7);
        bool clean = true;
        for (size_t i = 0; i <= e && clean; ++i) {
          clean = probe.FeedEpoch(slices.segments[i]);
        }
        if (clean) {
          out.push_back(CarriedDefect{m.name, std::move(slices), e + 1, kKarSeg008});
          return out;
        }
      }
    }
  }
  ADD_FAILURE() << "the mutation corpus has no forward tampered var import";
  return out;
}

TEST(SegmentCheckTest, CheckpointPreservesCarriedClaims) {
  HonestRun run = RunStacks();
  std::vector<CarriedDefect> defects = CarriedDefects(run);
  ASSERT_EQ(defects.size(), 2u);
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  for (const CarriedDefect& d : defects) {
    const std::vector<EpochSegment>& segments = d.slices.segments;
    AuditSession session(*run.app.program, config, 7);
    for (size_t i = 0; i < d.restore_after; ++i) {
      EXPECT_TRUE(session.FeedEpoch(segments[i])) << d.name << " epoch " << i;
    }
    std::string error;
    auto restored =
        AuditSession::Restore(*run.app.program, config, session.SaveCheckpoint(), &error);
    ASSERT_NE(restored, nullptr) << d.name << ": " << error;
    for (size_t i = d.restore_after; i < segments.size(); ++i) {
      if (!restored->FeedEpoch(segments[i])) {
        break;
      }
    }
    AuditResult result = restored->Finish();
    EXPECT_FALSE(result.accepted) << d.name;
    EXPECT_EQ(result.rule, d.rule) << d.name << ": " << result.reason;
  }
}

}  // namespace
}  // namespace karousos
