// The audit's cross-epoch state, and the static rules that read it.
//
// An epoch-streamed audit re-executes one advice slice at a time, so every
// reference into an earlier epoch (a GET's dictating PUT, a var-log prec, a
// write-order entry) and every forward allegation about a later one (a
// continuity import) must resolve through state carried across the epoch
// boundary. CarryState is that state, held exactly once. Every consumer
// shares it: the Verifier resolves through it and checkpoints it, the
// KAR-SEG pre-screen and `karousos check` (SegmentChecker) run their rules
// over it, and ShardAudit exports from it.
//
// Drive it once per epoch: RegisterImports as the epoch arrives, then
// optionally CheckEpoch (the static rules), then Fold once the epoch is done;
// Finish once the stream ends. Only the rules are optional: the fold always
// happens, so the state, and any checkpoint of it, is the same whether the
// rules ran or not.
//
// Rule catalogue (stable IDs; KAR-SEG-001..003 and 010 are container-layer and
// fire in the stream loader, 004..009 fire here):
//   KAR-SEG-001  segment container unreadable (magic/version, CRC, truncation)
//   KAR-SEG-002  frame schema violation (unexpected kind, undecodable payload)
//   KAR-SEG-003  epoch sequencing violation (duplicate, out of order, gap)
//   KAR-SEG-004  operation coordinates claimed by log entries in two epochs
//   KAR-SEG-005  opcounts entry for one (rid, hid) declared in two epochs
//   KAR-SEG-006  write-order entry recurs across epoch chunks
//   KAR-SEG-007  advice content outside its owning epoch's slice
//   KAR-SEG-008  continuity import broken (non-forward, contradicts the slice
//                it mirrors once that epoch arrives, or dangles past the end)
//   KAR-SEG-009  var-log prec chain cyclic across epochs
//   KAR-SEG-010  trace and advice streams disagree on the epoch set
//
// Every KAR-SEG advice rule fires only on genuinely cross-epoch phenomena: a
// single-epoch stream (epoch_requests == 0) can never trip 004..009, which is
// what keeps the streamed-with-pre-screen verdict bit-identical to the
// one-shot audit on honest slicings.
#ifndef SRC_ANALYSIS_CARRY_STATE_H_
#define SRC_ANALYSIS_CARRY_STATE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/adya/checker.h"
#include "src/analysis/diagnostic.h"
#include "src/common/flat_map.h"
#include "src/common/serde.h"
#include "src/server/advice.h"
#include "src/server/rollover.h"

namespace karousos {

inline constexpr const char* kKarSeg001 = "KAR-SEG-001";
inline constexpr const char* kKarSeg002 = "KAR-SEG-002";
inline constexpr const char* kKarSeg003 = "KAR-SEG-003";
inline constexpr const char* kKarSeg004 = "KAR-SEG-004";
inline constexpr const char* kKarSeg005 = "KAR-SEG-005";
inline constexpr const char* kKarSeg006 = "KAR-SEG-006";
inline constexpr const char* kKarSeg007 = "KAR-SEG-007";
inline constexpr const char* kKarSeg008 = "KAR-SEG-008";
inline constexpr const char* kKarSeg009 = "KAR-SEG-009";
inline constexpr const char* kKarSeg010 = "KAR-SEG-010";
// Shard-axis rules. 011 fires in the shard-file loader, 012..015 at
// audit-merge; like 004..009 they can only fire on genuinely cross-shard
// phenomena, so a single-shard run (K == 1) reproduces the unsharded verdict.
inline constexpr const char* kKarSeg011 = "KAR-SEG-011";  // boundary segment malformed
inline constexpr const char* kKarSeg012 = "KAR-SEG-012";  // rid coverage broken (overlap, gap, split group)
inline constexpr const char* kKarSeg013 = "KAR-SEG-013";  // write-order stitch broken / totals mismatch
inline constexpr const char* kKarSeg014 = "KAR-SEG-014";  // cross-shard state contradiction
inline constexpr const char* kKarSeg015 = "KAR-SEG-015";  // artifact set inconsistent

// The reject reason an error finding carries, prefixed by rule family:
// slice-local lint findings reject as "advice lint: ...", the cross-epoch
// rules as "model check: ...", and the container layer (001..003, 010) as
// "segment stream: ...".
std::string RejectReasonFor(const LintDiagnostic& d);

// Resolution of a variable-log coordinate across epoch boundaries. `value` is
// null for carried reads (a carry keeps no read values); it is always set for
// writes.
struct ResolvedVarEntry {
  bool present = false;
  bool is_write = false;
  const Value* value = nullptr;
};

// The request universe a carry check runs against: the trace rids seen so far
// and, in a shard audit, the rids this shard owns (nullptr == unsharded).
struct RidScope {
  const std::set<RequestId>* trace = nullptr;
  const std::set<RequestId>* owned = nullptr;

  // True when a shard scope is set and `rid` is an in-trace request owned by
  // another shard: the target's content never arrives here, so imports that
  // point at it are exempt from the direction rule and from local
  // confirmation (the merge confirms them against the owning shard). The
  // replicated init pseudo-request and rids outside the trace have no owning
  // shard to defer to, so they are never foreign.
  bool Foreign(RequestId rid) const {
    return owned != nullptr && rid != kInitRequestId && owned->count(rid) == 0 &&
           trace->count(rid) != 0;
  }
};

// Failure-latching reader for checkpoint payloads: every getter returns a
// default once any field fails to parse, and `ok` reports the verdict at the
// end. Keeps a decoder linear instead of a pyramid of optional checks.
struct CkptReader {
  explicit CkptReader(const std::vector<uint8_t>& payload) : r(payload) {}

  uint64_t V() { return Get(r.ReadVarint()); }
  uint64_t F64() { return Get(r.ReadFixed64()); }
  uint8_t B() { return Get(r.ReadByte()); }
  bool Bool() { return Get(r.ReadBool()); }
  std::string S() { return Get(r.ReadString()); }
  Value Val() { return Get(r.ReadValue()); }
  OpRef Op() { return Get(DeserializeOpRef(&r)); }
  TxOpRef Tx() { return Get(DeserializeTxOpRef(&r)); }

  // A count about to drive a loop. Every element costs at least one byte, so
  // a count beyond the remaining bytes is malformed: the bound keeps a
  // corrupted length from forcing a huge allocation.
  size_t N() {
    uint64_t n = V();
    if (n > r.remaining()) {
      ok = false;
      return 0;
    }
    return static_cast<size_t>(n);
  }

  template <typename T>
  T Get(std::optional<T> v) {
    if (!v) {
      ok = false;
      return T{};
    }
    return std::move(*v);
  }

  ByteReader r;
  bool ok = true;
};

class CarryState {
 public:
  // Carried view of a completed epoch's PUT: everything a later consumer (GET
  // feed, WR edge, write-order lint, isolation extraction, import
  // confirmation) can ask for.
  struct PutCarry {
    std::string key;
    Value value;
    HandlerId hid = 0;
    OpNum opnum = 0;
  };
  // Carried view of a var-log entry. Reads drop their value: no consumer ever
  // feeds from a read entry, and keeping read values resident would make the
  // carry as large as the advice itself.
  struct VarCarry {
    bool is_write = false;
    Value value;
  };
  // A forward allegation, with the epoch whose slice registered it.
  template <typename Import>
  struct Pending {
    Import imp;
    uint64_t registered_epoch = 0;
  };
  using VarKey = std::pair<VarId, OpRef>;

  // Resets to an empty stream of `epoch_requests`-sized epochs.
  void Begin(uint64_t epoch_requests);

  uint64_t epoch_requests() const { return epoch_requests_; }
  // Epochs folded so far == index of the epoch being fed.
  uint64_t epochs() const { return epochs_; }

  // Records this epoch's forward allegations. The first registration of a
  // coordinate wins; a later duplicate is ignored.
  void RegisterImports(const ContinuityImports& imports);

  // The per-epoch KAR-SEG rules (004..008) over the slice about to be folded.
  // Call after the slice-local KAR-ADV lint, so per-epoch diagnostics keep
  // catalogue order. Appends findings to `out`.
  void CheckEpoch(const Advice& slice, const ContinuityImports& imports, const RidScope& scope,
                  std::vector<LintDiagnostic>* out) const;

  // Folds a finished epoch's slice into every table and advances epochs().
  void Fold(const Advice& slice, const RidScope& scope);

  // Resolves a transaction-log / var-log coordinate through the carried
  // content of completed epochs, then the pending forward imports. Callers
  // holding a live slice check it first.
  ResolvedTxOp ResolveTxOp(const TxOpRef& ref) const;
  ResolvedVarEntry ResolveVarEntry(VarId vid, const OpRef& op) const;

  // What the carries really hold at a coordinate, in the shape of a
  // continuity import (imports are not consulted): the right-hand side of
  // ImportMatches, and a shard's export description.
  ContinuityImports::TxOpImport DescribeTxOp(const TxOpRef& ref) const;
  ContinuityImports::VarImport DescribeVarEntry(VarId vid, const OpRef& op) const;

  // Finish-time checks, in order: the write-order lint (KAR-ADV-009/010) over
  // the concatenated order; then, if it found no error and `run_rules`, rule
  // 007's early-content verdicts, 008's residual import closure and 009's
  // cross-epoch prec acyclicity. Appends findings to `out`.
  void Finish(bool run_rules, std::vector<LintDiagnostic>* out) const;

  // Confirms every pending import whose target is local against the carries.
  // Returns the first mismatch as a reject reason, or "" when all match.
  std::string ConfirmImports(const RidScope& scope) const;

  const WriteOrder& write_order() const { return write_order_; }
  const std::map<TxnKey, uint32_t>& txn_sizes() const { return txn_sizes_; }
  const std::map<TxOpRef, PutCarry>& puts() const { return puts_; }
  const std::map<VarKey, VarCarry>& vars() const { return vars_; }
  const std::map<TxOpRef, Pending<ContinuityImports::TxOpImport>>& tx_imports() const {
    return tx_imports_;
  }
  const std::map<VarKey, Pending<ContinuityImports::VarImport>>& var_imports() const {
    return var_imports_;
  }

  // The resolution carries (transaction sizes, PUTs, var-log entries): each
  // table's size, then its entries, as the checkpoint stores them.
  void WriteResolutionCarries(ByteWriter* out) const;
  // Bytes of the resolution carries' entries as WriteResolutionCarries
  // serializes them, less its three table sizes: the carries' share of the
  // resident-bytes gauge. Kept as a running count (Fold adds each new entry
  // and swaps out an overwritten one; Deserialize recounts once), so reading
  // it costs nothing per epoch.
  size_t resolution_carry_bytes() const { return resolution_carry_bytes_; }

  // Checkpoint round trip, in a canonical (sorted) encoding. Deserialize
  // expects a freshly begun state and latches `in->ok` on malformed input.
  void Serialize(ByteWriter* out) const;
  void Deserialize(CkptReader* in);

 private:
  struct PrecEdge {
    OpRef prec;
    uint64_t epoch = 0;  // Epoch of the entry holding the prec.
  };
  struct EarlyContent {
    uint64_t seen_epoch = 0;   // Slice the content appeared in.
    uint64_t owner_epoch = 0;  // Epoch its rid belongs to (> seen_epoch).
    std::string location;
  };

  void CheckDuplicateClaims(const Advice& slice, std::vector<LintDiagnostic>* out) const;
  void CheckOpcountEpochs(const Advice& slice, std::vector<LintDiagnostic>* out) const;
  void CheckWriteOrderRecurrence(const Advice& slice, std::vector<LintDiagnostic>* out) const;
  void CheckContentOwnership(const Advice& slice, const RidScope& scope,
                             std::vector<LintDiagnostic>* out) const;
  void CheckImports(const Advice& slice, const ContinuityImports& imports, const RidScope& scope,
                    std::vector<LintDiagnostic>* out) const;
  void FinishEarlyContent(std::vector<LintDiagnostic>* out) const;
  void FinishImports(std::vector<LintDiagnostic>* out) const;
  void FinishPrecChains(std::vector<LintDiagnostic>* out) const;
  // Sets a resolution carry, keeping resolution_carry_bytes_ exact.
  template <typename Table, typename Key, typename Carry>
  void SetCarry(Table* table, const Key& key, Carry carry, ByteWriter* scratch);

  uint64_t epoch_requests_ = 0;
  uint64_t epochs_ = 0;

  // Resolution carries. std::map: resolvers hand out pointers into them, and
  // the checkpoint wants their sorted order anyway.
  std::map<TxnKey, uint32_t> txn_sizes_;
  std::map<TxOpRef, PutCarry> puts_;
  std::map<VarKey, VarCarry> vars_;
  size_t resolution_carry_bytes_ = 0;
  // Every forward allegation the stream registered. Kept to the end: they
  // back resolution until their target arrives, and the finish-time checks
  // confirm them against the carries.
  std::map<TxOpRef, Pending<ContinuityImports::TxOpImport>> tx_imports_;
  std::map<VarKey, Pending<ContinuityImports::VarImport>> var_imports_;
  // The alleged global write order, concatenated from per-epoch chunks.
  WriteOrder write_order_;

  // Claim tables for the KAR-SEG rules. Values are the first epoch that owned
  // the key; probes against the current epoch detect recurrence.
  FlatMap<OpRef, uint64_t> claimed_ops_;
  FlatMap<std::pair<RequestId, HandlerId>, uint64_t> opcount_epochs_;
  FlatMap<TxOpRef, uint64_t> write_order_epochs_;
  FlatMap<VarKey, PrecEdge> prec_edges_;
  std::vector<EarlyContent> early_content_;
};

}  // namespace karousos

#endif  // SRC_ANALYSIS_CARRY_STATE_H_
