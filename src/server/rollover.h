// Collector-side epoch rollover: slices one run's trace and advice into
// epoch segments so the collector can ship them incrementally and the
// verifier's AuditSession can consume them one epoch at a time.
//
// Epoch assignment is by request id: rid r belongs to epoch (r-1)/N for
// ServerConfig::epoch_requests == N. The three slicing axes:
//   * trace   — chronological windows. Window e extends the event stream to
//     the earliest point where every request of epochs <= e has both arrived
//     and responded (concurrency lets later-epoch events appear inside
//     earlier windows; that is fine — the verifier ingests windows as a
//     single continuous stream).
//   * advice  — by the owning request id (tags, handler logs, var logs, tx
//     logs, opcounts, responseEmittedBy, nondet), except the write order,
//     which is cut positionally so the chunks concatenate to exactly the
//     alleged global order.
//   * continuity imports — for every reference that points *forward* across
//     an epoch boundary (a GET's dictating PUT in a later epoch, a var-log
//     prec in a later epoch), the slice carries what the collector alleges
//     lives at the referenced coordinates. The verifier uses the allegation
//     immediately and confirms it against the real slice when that epoch
//     arrives: a wrong continuity record can only cause rejection.
//
// The same slicer runs server-side (emitting segment files) and
// verifier-side (re-slicing monolithic inputs for `audit --epoch-size N`),
// so both paths produce byte-identical segments.
#ifndef SRC_SERVER_ROLLOVER_H_
#define SRC_SERVER_ROLLOVER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/diagnostic.h"
#include "src/common/kcodec.h"
#include "src/common/segment.h"
#include "src/server/advice.h"
#include "src/trace/trace.h"

namespace karousos {

// Epoch of a request id (init/reserved rid 0 maps to epoch 0).
uint64_t EpochOfRid(RequestId rid, uint64_t epoch_requests);

// What the collector alleges lives at out-of-epoch coordinates that this
// epoch's slice references. Allegations mirror whatever the full advice
// holds — including its defects — so that epoch-sliced validation reaches
// the same verdict as one-shot validation.
struct ContinuityImports {
  struct TxOpImport {
    TxOpRef ref;
    bool txn_present = false;  // The referenced transaction exists at all.
    bool op_present = false;   // ... and ref.index is within its log.
    uint8_t type = 0;          // TxOpType of the referenced op (when present).
    std::string key;           // PUT/GET key (when present).
    Value value;               // PUT value (when present and a PUT).
    HandlerId hid = 0;         // Issuing handler op (when present).
    OpNum opnum = 0;
  };
  struct VarImport {
    VarId vid = 0;
    OpRef op;
    bool present = false;  // The referenced entry exists in vid's log.
    uint8_t kind = 0;      // VarLogEntry::Kind (when present).
    Value value;           // Entry value (when present).
  };

  std::vector<TxOpImport> tx_ops;
  std::vector<VarImport> var_entries;

  bool empty() const { return tx_ops.empty() && var_entries.empty(); }

  void Serialize(ByteWriter* out) const;
  static std::optional<ContinuityImports> Deserialize(ByteReader* in);
};

// Looks up what the full advice alleges at an out-of-slice transaction-log /
// var-log coordinate. Allegations mirror defects faithfully (absent txn,
// out-of-range index, missing entry) so sliced validation reaches the same
// verdict as one-shot validation. Shared by the epoch slicer below and the
// shard slicer (src/server/shard.h).
ContinuityImports::TxOpImport DescribeTxOp(const Advice& advice, const TxOpRef& ref);
ContinuityImports::VarImport DescribeVarEntry(const Advice& advice, VarId vid, const OpRef& op);

// Whether an allegation matches a description of the real content at its
// coordinate (from the slice that arrived, the carries, or an owning shard's
// export). Only what a consumer can observe is pinned: presence, PUT-ness and
// a PUT's payload; for var-log entries, presence, write-ness and a write's
// value.
bool ImportMatches(const ContinuityImports::TxOpImport& alleged,
                   const ContinuityImports::TxOpImport& real);
bool ImportMatches(const ContinuityImports::VarImport& alleged,
                   const ContinuityImports::VarImport& real);

// One epoch's audit input: the trace window, the advice slice, and the
// continuity imports for the slice's forward references.
struct EpochSegment {
  uint64_t epoch = 0;
  std::vector<TraceEvent> window;
  Advice advice;
  ContinuityImports imports;
};

struct EpochSlices {
  uint64_t epoch_requests = 0;
  std::vector<EpochSegment> segments;  // One per epoch, in epoch order.
};

// A trace's epoch layout, shared by the epoch slicer and the shard slicer
// (src/server/shard.h) so both cut identical windows.
struct TraceEpochs {
  uint64_t epoch_requests = 0;
  // The trace's request ids fix the epoch count; advice content beyond the
  // last trace epoch is clamped into the final slice.
  uint64_t max_epoch = 0;
  std::vector<RequestId> rids;      // Every trace rid, ascending.
  std::vector<size_t> window_ends;  // Per epoch: one past its window's last event.

  size_t epochs() const { return window_ends.size(); }
  // The slice a rid's content belongs to.
  size_t SliceOf(RequestId rid) const {
    return static_cast<size_t>(std::min(EpochOfRid(rid, epoch_requests), max_epoch));
  }
};
TraceEpochs CutTraceEpochs(const Trace& trace, uint64_t epoch_requests);

// Sizes *segments to one per epoch and fills each one's epoch index and
// trace window.
void AssignWindows(const Trace& trace, const TraceEpochs& cuts,
                   std::vector<EpochSegment>* segments);

// Cuts an alleged write order (or a shard's filtered subsequence of it) into
// positional per-epoch chunks: a chunk extends while entries belong to its
// epoch or earlier, the first later-epoch entry opens a later chunk, and
// earlier-epoch entries stranded behind it stay there. Feed the entries'
// slices in order; each call returns the chunk the entry goes to. The chunks
// therefore concatenate to exactly the order fed.
class WriteOrderChunker {
 public:
  size_t Next(size_t slice) {
    chunk_ = std::max(chunk_, slice);
    return chunk_;
  }

 private:
  size_t chunk_ = 0;
};

// Slices a complete run. epoch_requests == 0 means one epoch holding
// everything. Advice content whose rid falls beyond the last trace epoch is
// clamped into the final slice (where the lint's not-in-trace rule reports
// it, exactly as the one-shot audit would).
EpochSlices SliceRun(const Trace& trace, const Advice& advice, uint64_t epoch_requests);

// Move-based slicer for the collector's own emission path: consumes the
// advice instead of copying every log and value into the slices (continuity
// imports are computed from the full advice before any content moves).
// Produces slices byte-identical to SliceRun's for the same inputs.
EpochSlices SliceRunOwned(const Trace& trace, Advice&& advice, uint64_t epoch_requests);

// Rebuilds the monolithic advice from a run's slices, consuming them. For
// slices produced by SliceRun/SliceRunOwned this is an exact inverse: epochs
// partition the key space in ascending rid ranges, so concatenating the
// per-epoch maps in epoch order restores every component's key order.
Advice MergeSlices(EpochSlices&& slices);

// The epoch-frame codec: the one encoder and the one reader of the per-epoch
// KSEG frames, shared by the two-container epoch stream below and the
// single-container shard file (src/server/shard.h). An epoch travels as a
// kTrace frame (its window) and a kAdvice frame (its advice slice followed by
// the continuity imports).
//
// Storage-class stages `c` (src/common/kcodec.h) apply per frame and are named
// in the v2 frame flags: the compact transcode when lanes or dict is on, then
// the block stage, kept only when it shrinks the frame, so a frame's flags
// always name exactly the transforms its bytes carry. With no stage set the
// container is v1 and its bytes are the raw encoding.
uint8_t SegmentFormatVersionFor(const KsegCompression& c);

// seg's frame of `kind` (kTrace or kAdvice) under the stages `c`: its flags
// and stored payload. Frames encode independently of each other, so a writer
// may encode them on any threads and append them in epoch order.
struct EncodedFrame {
  uint8_t flags = 0;
  std::vector<uint8_t> payload;
};
EncodedFrame EncodeEpochFrame(SegmentKind kind, const EpochSegment& seg,
                              const KsegCompression& c);

// Encodes seg's frame of `kind` and appends it.
void AppendCompressedFrame(SegmentWriter* writer, SegmentKind kind, const EpochSegment& seg,
                           const KsegCompression& c);

// The two-container epoch stream: one kTrace frame per epoch in one
// container, one kAdvice frame per epoch in the other.
std::vector<uint8_t> EncodeTraceSegments(const EpochSlices& slices, const KsegCompression& c = {});
std::vector<uint8_t> EncodeAdviceSegments(const EpochSlices& slices,
                                          const KsegCompression& c = {});

// Decodes one frame payload, undoing the stages named in its flags byte (block
// first, then the grammar-aware lanes/dict transcoder); flags == 0 is the raw
// decode. Returns nullopt on malformed payloads and on unknown flag bits (the
// segment reader already screens them, but the payload decoders never trust
// their input).
std::optional<std::vector<TraceEvent>> DecodeTraceSegmentPayload(
    const std::vector<uint8_t>& payload, uint8_t flags = 0);
struct AdviceSegmentPayload {
  Advice advice;
  ContinuityImports imports;
};
std::optional<AdviceSegmentPayload> DecodeAdviceSegmentPayload(
    const std::vector<uint8_t>& payload, uint8_t flags = 0);

// The one epoch-frame reader. Checks that `rec` is a frame of kind `want`
// (KAR-SEG-002) for epoch `expected_epoch` (KAR-SEG-003) and decodes its
// payload (KAR-SEG-002) into *seg: a kTrace frame fills seg->window, a
// kAdvice frame seg->advice and seg->imports. A finding is returned, located
// at "<container>[offset N]"; nullopt means *seg holds the frame. Container
// rules (unreadable input, pairing, manifests) stay with each caller.
std::optional<LintDiagnostic> ReadEpochFrame(const SegmentRecord& rec, SegmentKind want,
                                             uint64_t expected_epoch, const char* container,
                                             EpochSegment* seg);

// A pull source of one run's epoch segments, in epoch order: the one input of
// the audit loop (AuditSession::Run) and of the check loop (CheckEpochs), over
// monolithic runs, container pairs and shard files alike.
class EpochSource {
 public:
  EpochSource() = default;
  EpochSource(const EpochSource&) = delete;
  EpochSource& operator=(const EpochSource&) = delete;
  virtual ~EpochSource() = default;
  // The next segment, valid until the following call; nullptr once the source
  // has ended, cleanly or on a container fault (finding()).
  virtual const EpochSegment* Next() = 0;
  // The container fault the source ended on, if any.
  const std::optional<LintDiagnostic>& finding() const { return finding_; }
  // Container frames read so far (0 for in-memory slices).
  uint64_t frames() const { return frames_; }

 protected:
  std::optional<LintDiagnostic> finding_;
  uint64_t frames_ = 0;
};

// Yields the segments of an EpochSlices. An owning source (from SliceRun or
// SliceRunOwned) frees each segment once the following one is pulled; a
// viewing source (a loaded ShardFile's slices) needs them to outlive it.
class SliceSource final : public EpochSource {
 public:
  explicit SliceSource(EpochSlices&& slices);
  explicit SliceSource(const EpochSlices& slices) : slices_(&slices) {}
  const EpochSegment* Next() override;

 private:
  EpochSlices owned_;
  const EpochSlices* slices_;
  size_t next_ = 0;
};

// Walks a (trace, advice) container pair in lockstep, decoding one epoch at a
// time. Owns the stream pair's container rules, unreadable container
// (KAR-SEG-001) and stream pairing (010); each frame goes through
// ReadEpochFrame (002, 003).
class ContainerPairSource final : public EpochSource {
 public:
  // Over in-memory containers, which must outlive the source.
  ContainerPairSource(const std::vector<uint8_t>& trace_bytes,
                      const std::vector<uint8_t>& advice_bytes);
  // Over container files, read one frame at a time.
  ContainerPairSource(const std::string& trace_path, const std::string& advice_path);
  const EpochSegment* Next() override;

 private:
  const EpochSegment* Fail(const char* rule, std::string location, std::string message);

  std::unique_ptr<SegmentReader> trace_;
  std::unique_ptr<SegmentReader> advice_;
  std::string trace_open_error_;
  std::string advice_open_error_;
  EpochSegment segment_;
  uint64_t next_epoch_ = 0;
};

}  // namespace karousos

#endif  // SRC_SERVER_ROLLOVER_H_
