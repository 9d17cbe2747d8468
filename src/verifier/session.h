// Resumable epoch-streaming audit: AuditSession consumes one EpochSegment at
// a time (trace window + advice slice + continuity imports, pulled by Run
// from an EpochSource: a sliced run, a container pair or a shard file) and
// assembles the verdict at Finish. Between epochs the session's entire
// cross-epoch state serializes to a single checkpoint frame, so an
// interrupted audit resumes from the last completed epoch instead of
// restarting. Its advice-derived part is one CarryState
// (src/analysis/carry_state.h), the same tables the KAR-SEG pre-screen and
// `karousos check` read; it is folded every epoch whether or not the
// pre-screen runs, so a checkpoint saved under one VerifierConfig::prescreen
// setting resumes under the other.
//
// The session and Verifier::Audit drive the same epoch pipeline
// (src/verifier/verifier.h); Audit is that pipeline fed the whole run as one
// final epoch. So for the same complete (trace, advice) pair, feeding the
// slices of any epoch size reaches Audit's verdict, reason, rule, and
// diagnostics, honest runs and single-fault adversarial runs alike. What
// smaller epochs buy is memory: per-epoch advice is dropped once its epoch
// is re-executed, and only the compact carries (transaction shapes, PUT
// payloads, var-log entry kinds plus write values) stay resident.
#ifndef SRC_VERIFIER_SESSION_H_
#define SRC_VERIFIER_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/server/rollover.h"
#include "src/verifier/verifier.h"

namespace karousos {

class AuditSession {
 public:
  // `shard_rids`, when set, scopes the audit to the requests one shard owns
  // (src/verifier/shard_audit.h); unset audits the whole run.
  AuditSession(const Program& program, const VerifierConfig& config, uint64_t epoch_requests,
               std::optional<std::set<RequestId>> shard_rids = std::nullopt);

  // As Verifier::set_untracked_accesses: attach the §5 race scan's findings
  // (warnings) to the final result. The log must outlive Finish().
  void set_untracked_accesses(const UntrackedAccessLog* log);

  // Feeds the next epoch. Segments must arrive in epoch order starting at
  // next_epoch(); an out-of-order segment rejects the audit (segment streams
  // are part of the server's claim, so reordering is misbehavior). Returns
  // false once the verdict is already determined — callers may stop feeding
  // and jump to Finish(), or keep draining; both are safe.
  bool FeedEpoch(const EpochSegment& segment);

  // The audit loop: feeds every epoch `source` yields, running `after_epoch`
  // (a checkpoint writer, say) after each, until the source ends or the
  // verdict is decided, then returns Finish(). Epochs below next_epoch() are
  // covered by a restored checkpoint: they are still pulled, so their frames
  // are still file-checked, but not fed. A source that ends on a container
  // fault decides the verdict with that finding, as `karousos check` does.
  AuditResult Run(EpochSource* source,
                  const std::function<void(AuditSession&)>& after_epoch = nullptr);

  // Runs the global end-of-stream checks (write-order lint, continuity
  // import confirmation, isolation, internal-state edges, graph acyclicity)
  // and assembles the verdict. Call exactly once, after the last epoch.
  AuditResult Finish();

  // Serializes the full session state, carry state included, as one
  // kCheckpoint segment frame. Valid between epochs (i.e. after any FeedEpoch
  // call and before Finish).
  std::vector<uint8_t> SaveCheckpoint() const;

  // Reconstructs a session from SaveCheckpoint bytes. The program and the
  // isolation level must match the checkpointing session's (the isolation
  // level is embedded and verified); threads and prescreen may differ.
  // Returns nullptr and sets *error on mismatch or malformed bytes.
  static std::unique_ptr<AuditSession> Restore(const Program& program,
                                               const VerifierConfig& config,
                                               const std::vector<uint8_t>& bytes,
                                               std::string* error);

  // The epoch index the next FeedEpoch call must carry.
  uint64_t next_epoch() const;
  // Requests per epoch (0 = single epoch). After Restore this is the
  // checkpointing session's value, so callers re-slice consistently.
  uint64_t epoch_requests() const;
  // True once a mid-stream rejection fixed the verdict.
  bool decided() const;
  // High-water mark of resident advice-derived bytes (current slice +
  // imports + carries, serialized) — the epoch bench's y-axis.
  size_t peak_resident_advice_bytes() const;

 private:
  friend class ShardAudit;  // Harvests the verifier's state after Run.

  Verifier v_;
};

}  // namespace karousos

#endif  // SRC_VERIFIER_SESSION_H_
