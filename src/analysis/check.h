// Standalone streaming model check over KSEG segment streams — the static
// half of the audit, runnable without a program, a store, or re-execution.
//
// Layering: SegmentChecker replays exactly the static prefix of the
// AuditSession's per-epoch work (trace-window ingestion, the slice-local
// KAR-ADV lint with carry-backed resolution, the KAR-SEG cross-epoch rules)
// over the same CarryState the session keeps (src/analysis/carry_state.h),
// folded the same way. So any stream the checker rejects is rejected by the
// full audit with the same first rule, and the session's fast-reject
// pre-screen is this same pass, so statically-rejectable advice never reaches
// ReExec. What the checker skips is re-execution, not state: it holds the
// same value-carrying carries the session holds. CheckEpochs pulls the epochs
// from an EpochSource (src/server/rollover.h), the same source the audit loop
// reads, so the container rules (KAR-SEG-001..003, 010) come from one walk.
//
// First-fault rule: both loops judge the stream in epoch order and stop at
// the first fault, and a container fault is found only when its frame is
// read. Within an epoch the static rules run before re-execution. So an audit
// with the pre-screen on reports the check's first fault, container faults
// included, unless re-execution rejected an earlier epoch: then the audit
// stops there and never reads the later frames.
#ifndef SRC_ANALYSIS_CHECK_H_
#define SRC_ANALYSIS_CHECK_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/carry_state.h"
#include "src/analysis/diagnostic.h"
#include "src/server/rollover.h"

namespace karousos {

// Outcome of a standalone model check. `reason`/`rule` describe the first
// error (the verdict the session's RejectError would carry); `diagnostics`
// holds every finding up to and including the epoch that produced it.
struct CheckResult {
  bool ok = true;
  std::string reason;
  std::string rule;
  std::vector<LintDiagnostic> diagnostics;
  uint64_t epochs = 0;
  uint64_t frames = 0;  // Frames consumed across both containers.
};

// Per-epoch driver over already-decoded segments. Feed epochs in order; stop
// feeding once CheckEpoch returns false (an error-severity finding exists).
class SegmentChecker {
 public:
  explicit SegmentChecker(uint64_t epoch_requests);

  bool CheckEpoch(const EpochSegment& segment);
  CheckResult Finish();
  // Result so far without the finish-time rules — for a source that ended on
  // a container fault (a truncated stream has no meaningful end-of-stream
  // state).
  CheckResult Abandon();

 private:
  void NoteVerdict();

  std::set<RequestId> trace_rids_;
  std::set<RequestId> epoch_rids_;
  CarryState carry_;
  CheckResult result_;
};

// The check loop: runs a SegmentChecker over every epoch `source` yields,
// stopping at the first error. A source that ends on a container fault
// abandons the check with that finding as its verdict; otherwise the finish
// rules run.
CheckResult CheckEpochs(EpochSource* source, uint64_t epoch_requests);

}  // namespace karousos

#endif  // SRC_ANALYSIS_CHECK_H_
