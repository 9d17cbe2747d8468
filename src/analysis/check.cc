#include "src/analysis/check.h"

#include <utility>

#include "src/analysis/lint.h"

namespace karousos {

SegmentChecker::SegmentChecker(uint64_t epoch_requests) { carry_.Begin(epoch_requests); }

void SegmentChecker::NoteVerdict() {
  if (!result_.ok) {
    return;
  }
  for (const LintDiagnostic& d : result_.diagnostics) {
    if (d.severity == LintSeverity::kError) {
      result_.ok = false;
      result_.rule = d.rule;
      result_.reason = RejectReasonFor(d);
      return;
    }
  }
}

bool SegmentChecker::CheckEpoch(const EpochSegment& segment) {
  if (!result_.ok) {
    return false;
  }
  // The static prefix of the session's StreamEpoch, in the same order: ingest
  // the window, derive this epoch's rid set, register the forward
  // allegations, lint the slice (carry-backed resolution), then the
  // cross-epoch rules. Dynamic-only checks (trace balance, epoch
  // completeness) are deliberately absent — they are the audit's to make.
  for (const TraceEvent& ev : segment.window) {
    if (ev.kind == TraceEvent::Kind::kRequest) {
      trace_rids_.insert(ev.rid);
    }
  }
  epoch_rids_.clear();
  for (RequestId rid : trace_rids_) {
    if (EpochOfRid(rid, carry_.epoch_requests()) == carry_.epochs()) {
      epoch_rids_.insert(rid);
    }
  }
  carry_.RegisterImports(segment.imports);
  LintEpochContext ctx;
  ctx.trace_rids = &trace_rids_;
  ctx.epoch_rids = &epoch_rids_;
  ctx.var_prec = [this](VarId vid, const OpRef& op) {
    ResolvedVarEntry entry = carry_.ResolveVarEntry(vid, op);
    return VarPrecLookup{entry.present, entry.is_write};
  };
  ctx.tx_op = [this](const TxOpRef& ref) { return carry_.ResolveTxOp(ref); };
  for (LintDiagnostic& d : LintAdviceEpoch(segment.advice, ctx)) {
    result_.diagnostics.push_back(std::move(d));
  }
  // Mirror the session's throw points: an ADV error stops before the SEG
  // pass. The fold happens either way, as it does in the session.
  const RidScope scope{&trace_rids_, nullptr};
  NoteVerdict();
  if (result_.ok) {
    carry_.CheckEpoch(segment.advice, segment.imports, scope, &result_.diagnostics);
    NoteVerdict();
  }
  carry_.Fold(segment.advice, scope);
  result_.epochs = carry_.epochs();
  return result_.ok;
}

CheckResult SegmentChecker::Finish() {
  if (result_.ok) {
    carry_.Finish(/*run_rules=*/true, &result_.diagnostics);
    NoteVerdict();
  }
  result_.epochs = carry_.epochs();
  return std::move(result_);
}

CheckResult CheckEpochs(EpochSource* source, uint64_t epoch_requests) {
  SegmentChecker checker(epoch_requests);
  for (const EpochSegment* segment = source->Next();
       segment != nullptr && checker.CheckEpoch(*segment); segment = source->Next()) {
  }
  CheckResult result;
  if (source->finding()) {
    result = checker.Abandon();
    result.diagnostics.push_back(*source->finding());
    result.ok = false;
    result.rule = source->finding()->rule;
    result.reason = RejectReasonFor(*source->finding());
  } else {
    result = checker.Finish();
  }
  result.frames = source->frames();
  return result;
}

CheckResult SegmentChecker::Abandon() {
  result_.epochs = carry_.epochs();
  return std::move(result_);
}

}  // namespace karousos
