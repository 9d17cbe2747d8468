#include "src/server/rollover.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/analysis/carry_state.h"
#include "src/server/kseg_codec.h"

namespace karousos {

uint64_t EpochOfRid(RequestId rid, uint64_t epoch_requests) {
  if (epoch_requests == 0 || rid == 0) return 0;
  return (rid - 1) / epoch_requests;
}

void ContinuityImports::Serialize(ByteWriter* out) const {
  out->WriteVarint(tx_ops.size());
  for (const TxOpImport& imp : tx_ops) {
    SerializeTxOpRef(imp.ref, out);
    out->WriteBool(imp.txn_present);
    out->WriteBool(imp.op_present);
    out->WriteByte(imp.type);
    out->WriteString(imp.key);
    out->WriteValue(imp.value);
    out->WriteFixed64(imp.hid);
    out->WriteVarint(imp.opnum);
  }
  out->WriteVarint(var_entries.size());
  for (const VarImport& imp : var_entries) {
    out->WriteFixed64(imp.vid);
    SerializeOpRef(imp.op, out);
    out->WriteBool(imp.present);
    out->WriteByte(imp.kind);
    out->WriteValue(imp.value);
  }
}

std::optional<ContinuityImports> ContinuityImports::Deserialize(ByteReader* in) {
  ContinuityImports imports;
  auto tx_count = in->ReadVarint();
  if (!tx_count) return std::nullopt;
  imports.tx_ops.reserve(*tx_count);
  for (uint64_t i = 0; i < *tx_count; ++i) {
    TxOpImport imp;
    auto ref = DeserializeTxOpRef(in);
    auto txn_present = in->ReadBool();
    auto op_present = in->ReadBool();
    auto type = in->ReadByte();
    auto key = in->ReadString();
    auto value = in->ReadValue();
    auto hid = in->ReadFixed64();
    auto opnum = in->ReadVarint();
    if (!ref || !txn_present || !op_present || !type || !key || !value || !hid || !opnum) {
      return std::nullopt;
    }
    imp.ref = *ref;
    imp.txn_present = *txn_present;
    imp.op_present = *op_present;
    imp.type = *type;
    imp.key = std::move(*key);
    imp.value = std::move(*value);
    imp.hid = *hid;
    imp.opnum = static_cast<OpNum>(*opnum);
    imports.tx_ops.push_back(std::move(imp));
  }
  auto var_count = in->ReadVarint();
  if (!var_count) return std::nullopt;
  imports.var_entries.reserve(*var_count);
  for (uint64_t i = 0; i < *var_count; ++i) {
    VarImport imp;
    auto vid = in->ReadFixed64();
    auto op = DeserializeOpRef(in);
    auto present = in->ReadBool();
    auto kind = in->ReadByte();
    auto value = in->ReadValue();
    if (!vid || !op || !present || !kind || !value) return std::nullopt;
    imp.vid = *vid;
    imp.op = *op;
    imp.present = *present;
    imp.kind = *kind;
    imp.value = std::move(*value);
    imports.var_entries.push_back(std::move(imp));
  }
  return imports;
}

// Looks up what the full advice alleges at a cross-epoch transaction-log
// coordinate. Mirrors defects faithfully (absent txn, out-of-range index,
// wrong op type) so sliced validation rejects exactly where one-shot does.
ContinuityImports::TxOpImport DescribeTxOp(const Advice& advice, const TxOpRef& ref) {
  ContinuityImports::TxOpImport imp;
  imp.ref = ref;
  auto it = advice.tx_logs.find(TxnKey{ref.rid, ref.tid});
  if (it == advice.tx_logs.end()) return imp;
  imp.txn_present = true;
  if (ref.index < 1 || ref.index > it->second.size()) return imp;
  imp.op_present = true;
  const TxOperation& op = it->second[ref.index - 1];
  imp.type = static_cast<uint8_t>(op.type);
  imp.key = op.key;
  imp.value = op.put_value;
  imp.hid = op.hid;
  imp.opnum = op.opnum;
  return imp;
}

ContinuityImports::VarImport DescribeVarEntry(const Advice& advice, VarId vid, const OpRef& op) {
  ContinuityImports::VarImport imp;
  imp.vid = vid;
  imp.op = op;
  auto vit = advice.var_logs.find(vid);
  if (vit == advice.var_logs.end()) return imp;
  auto eit = vit->second.find(op);
  if (eit == vit->second.end()) return imp;
  imp.present = true;
  imp.kind = static_cast<uint8_t>(eit->second.kind);
  imp.value = eit->second.value;
  return imp;
}

bool ImportMatches(const ContinuityImports::TxOpImport& alleged,
                   const ContinuityImports::TxOpImport& real) {
  if (alleged.txn_present != real.txn_present || alleged.op_present != real.op_present) {
    return false;
  }
  if (!alleged.op_present) {
    return true;
  }
  bool put = static_cast<TxOpType>(alleged.type) == TxOpType::kPut;
  if (put != (static_cast<TxOpType>(real.type) == TxOpType::kPut)) {
    return false;
  }
  return !put || (alleged.key == real.key && alleged.value == real.value &&
                  alleged.hid == real.hid && alleged.opnum == real.opnum);
}

bool ImportMatches(const ContinuityImports::VarImport& alleged,
                   const ContinuityImports::VarImport& real) {
  if (alleged.present != real.present) {
    return false;
  }
  if (!alleged.present) {
    return true;
  }
  bool write = static_cast<VarLogEntry::Kind>(alleged.kind) == VarLogEntry::Kind::kWrite;
  return write == (static_cast<VarLogEntry::Kind>(real.kind) == VarLogEntry::Kind::kWrite) &&
         (!write || alleged.value == real.value);
}

EpochSlices SliceRun(const Trace& trace, const Advice& advice, uint64_t epoch_requests) {
  // One up-front copy, then the owned slicer: a single slicing implementation
  // keeps server-side and verifier-side segments byte-identical by
  // construction.
  Advice copy = advice;
  return SliceRunOwned(trace, std::move(copy), epoch_requests);
}

TraceEpochs CutTraceEpochs(const Trace& trace, uint64_t epoch_requests) {
  TraceEpochs out;
  out.epoch_requests = epoch_requests;
  struct RidSeen {
    bool req = false;
    bool resp = false;
    size_t last = 0;
  };
  std::map<RequestId, RidSeen> seen;
  for (size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& ev = trace.events[i];
    RidSeen& s = seen[ev.rid];
    (ev.kind == TraceEvent::Kind::kRequest ? s.req : s.resp) = true;
    s.last = i;
  }
  out.rids.reserve(seen.size());
  for (const auto& [rid, s] : seen) {
    out.rids.push_back(rid);
    out.max_epoch = std::max(out.max_epoch, EpochOfRid(rid, epoch_requests));
  }
  const size_t epochs = static_cast<size_t>(out.max_epoch) + 1;

  // Chronological cuts: window e ends at the earliest index past the last
  // event of every completed request of epochs <= e. A request missing its
  // arrival or response never completes, so its epoch's cut collapses to the
  // end of the trace (the streaming balance check then rejects at Finish,
  // exactly as the one-shot balance check would up front).
  std::vector<size_t> completion(epochs, 0);  // One-past-last event index.
  std::vector<bool> incomplete(epochs, false);
  for (const auto& [rid, s] : seen) {
    const size_t e = static_cast<size_t>(EpochOfRid(rid, epoch_requests));
    if (!s.req || !s.resp) {
      incomplete[e] = true;
    } else {
      completion[e] = std::max(completion[e], s.last + 1);
    }
  }
  out.window_ends.resize(epochs);
  size_t prev_cut = 0;
  size_t running_completion = 0;
  bool running_incomplete = false;
  for (size_t e = 0; e < epochs; ++e) {
    running_completion = std::max(running_completion, completion[e]);
    running_incomplete = running_incomplete || incomplete[e];
    size_t cut = running_incomplete ? trace.events.size() : running_completion;
    if (e + 1 == epochs) cut = trace.events.size();
    cut = std::max(cut, prev_cut);
    out.window_ends[e] = cut;
    prev_cut = cut;
  }
  return out;
}

void AssignWindows(const Trace& trace, const TraceEpochs& cuts,
                   std::vector<EpochSegment>* segments) {
  segments->resize(cuts.epochs());
  size_t begin = 0;
  for (size_t e = 0; e < cuts.epochs(); ++e) {
    EpochSegment& seg = (*segments)[e];
    seg.epoch = e;
    seg.window.assign(trace.events.begin() + static_cast<ptrdiff_t>(begin),
                      trace.events.begin() + static_cast<ptrdiff_t>(cuts.window_ends[e]));
    begin = cuts.window_ends[e];
  }
}

EpochSlices SliceRunOwned(const Trace& trace, Advice&& advice, uint64_t epoch_requests) {
  EpochSlices out;
  out.epoch_requests = epoch_requests;
  const TraceEpochs cuts = CutTraceEpochs(trace, epoch_requests);
  const size_t epochs = cuts.epochs();
  AssignWindows(trace, cuts, &out.segments);

  // Continuity imports: allegations for every forward cross-epoch reference,
  // deduplicated and emitted in sorted order so server-side and
  // verifier-side slicing produce byte-identical segments. Computed *before*
  // the slicing below moves the referenced content out of the full advice.
  {
    std::vector<std::map<TxOpRef, ContinuityImports::TxOpImport>> tx_imports(epochs);
    std::vector<std::map<std::pair<VarId, OpRef>, ContinuityImports::VarImport>> var_imports(
        epochs);
    for (const auto& [txn, log] : advice.tx_logs) {
      const size_t e = cuts.SliceOf(txn.rid);
      for (const TxOperation& op : log) {
        if (op.type != TxOpType::kGet || op.get_from.IsNil()) continue;
        if (cuts.SliceOf(op.get_from.rid) <= e) continue;
        tx_imports[e].emplace(op.get_from, DescribeTxOp(advice, op.get_from));
      }
    }
    for (const auto& [vid, log] : advice.var_logs) {
      for (const auto& [op, entry] : log) {
        const size_t e = cuts.SliceOf(op.rid);
        if (entry.prec.IsNil()) continue;
        if (cuts.SliceOf(entry.prec.rid) <= e) continue;
        var_imports[e].emplace(std::make_pair(vid, entry.prec),
                               DescribeVarEntry(advice, vid, entry.prec));
      }
    }
    for (size_t e = 0; e < epochs; ++e) {
      EpochSegment& seg = out.segments[e];
      for (auto& [ref, imp] : tx_imports[e]) seg.imports.tx_ops.push_back(std::move(imp));
      for (auto& [key, imp] : var_imports[e]) seg.imports.var_entries.push_back(std::move(imp));
    }
  }

  // Advice slices, by owning request id — content moves out of the full
  // advice (per-epoch key sequences are ascending subsequences of the
  // source maps, so end-hinted inserts rebuild each slice in one pass).
  for (const auto& [rid, tag] : advice.tags) {
    Advice& target = out.segments[cuts.SliceOf(rid)].advice;
    target.tags.emplace_hint(target.tags.end(), rid, tag);
  }
  for (auto& [rid, log] : advice.handler_logs) {
    Advice& target = out.segments[cuts.SliceOf(rid)].advice;
    target.handler_logs.emplace_hint(target.handler_logs.end(), rid, std::move(log));
  }
  for (auto& [vid, log] : advice.var_logs) {
    for (auto& [op, entry] : log) {
      VarLog& target = out.segments[cuts.SliceOf(op.rid)].advice.var_logs[vid];
      target.emplace_hint(target.end(), op, std::move(entry));
    }
  }
  for (auto& [txn, log] : advice.tx_logs) {
    Advice& target = out.segments[cuts.SliceOf(txn.rid)].advice;
    target.tx_logs.emplace_hint(target.tx_logs.end(), txn, std::move(log));
  }
  for (const auto& [rid, emitter] : advice.response_emitted_by) {
    Advice& target = out.segments[cuts.SliceOf(rid)].advice;
    target.response_emitted_by.emplace_hint(target.response_emitted_by.end(), rid, emitter);
  }
  for (const auto& [key, count] : advice.opcounts) {
    Advice& target = out.segments[cuts.SliceOf(key.first)].advice;
    target.opcounts.emplace_hint(target.opcounts.end(), key, count);
  }
  for (auto& [op, record] : advice.nondet) {
    Advice& target = out.segments[cuts.SliceOf(op.rid)].advice;
    target.nondet.emplace_hint(target.nondet.end(), op, std::move(record));
  }

  // Write order: positional prefix chunks.
  WriteOrderChunker chunker;
  for (const TxOpRef& ref : advice.write_order) {
    out.segments[chunker.Next(cuts.SliceOf(ref.rid))].advice.write_order.push_back(ref);
  }

  return out;
}

Advice MergeSlices(EpochSlices&& slices) {
  Advice out;
  // Epochs partition request ids into ascending ranges (rid 0 in epoch 0,
  // clamped high rids in the final epoch), so concatenating the per-epoch
  // maps in epoch order yields every component's keys in ascending order —
  // end-hinted inserts rebuild the monolithic maps in one pass.
  for (EpochSegment& seg : slices.segments) {
    Advice& a = seg.advice;
    for (const auto& [rid, tag] : a.tags) {
      out.tags.emplace_hint(out.tags.end(), rid, tag);
    }
    for (auto& [rid, log] : a.handler_logs) {
      out.handler_logs.emplace_hint(out.handler_logs.end(), rid, std::move(log));
    }
    for (auto& [vid, log] : a.var_logs) {
      VarLog& target = out.var_logs[vid];
      for (auto& [op, entry] : log) {
        target.emplace_hint(target.end(), op, std::move(entry));
      }
    }
    for (auto& [txn, log] : a.tx_logs) {
      out.tx_logs.emplace_hint(out.tx_logs.end(), txn, std::move(log));
    }
    for (const auto& [rid, emitter] : a.response_emitted_by) {
      out.response_emitted_by.emplace_hint(out.response_emitted_by.end(), rid, emitter);
    }
    for (const auto& [key, count] : a.opcounts) {
      out.opcounts.emplace_hint(out.opcounts.end(), key, count);
    }
    for (auto& [op, record] : a.nondet) {
      out.nondet.emplace_hint(out.nondet.end(), op, std::move(record));
    }
    out.write_order.insert(out.write_order.end(), a.write_order.begin(), a.write_order.end());
  }
  return out;
}

uint8_t SegmentFormatVersionFor(const KsegCompression& c) {
  return c.any() ? kSegmentFormatVersionV2 : kSegmentFormatVersion;
}

EncodedFrame EncodeEpochFrame(SegmentKind kind, const EpochSegment& seg,
                              const KsegCompression& c) {
  ByteWriter payload;
  const bool compact = c.lanes || c.dict;
  if (kind == SegmentKind::kTrace) {
    if (compact) {
      EncodeCompactTracePayload(seg.window, c, &payload);
    } else {
      SerializeTraceEvents(seg.window, &payload);
    }
  } else if (compact) {
    EncodeCompactAdvicePayload(seg.advice, seg.imports, c, &payload);
  } else {
    seg.advice.Serialize(&payload);
    seg.imports.Serialize(&payload);
  }
  EncodedFrame out;
  out.flags = static_cast<uint8_t>(c.Flags() & ~kFrameFlagBlock);
  if (c.block) {
    std::vector<uint8_t> blocked = BlockFrameEncode(payload.bytes());
    if (blocked.size() < payload.size()) {
      out.flags |= kFrameFlagBlock;
      out.payload = std::move(blocked);
      return out;
    }
  }
  out.payload = payload.Take();
  return out;
}

void AppendCompressedFrame(SegmentWriter* writer, SegmentKind kind, const EpochSegment& seg,
                           const KsegCompression& c) {
  const EncodedFrame frame = EncodeEpochFrame(kind, seg, c);
  writer->Append(kind, seg.epoch, frame.flags, frame.payload);
}

namespace {

std::vector<uint8_t> EncodeStream(const EpochSlices& slices, SegmentKind kind,
                                  const KsegCompression& c) {
  SegmentWriter writer(SegmentFormatVersionFor(c));
  for (const EpochSegment& seg : slices.segments) {
    AppendCompressedFrame(&writer, kind, seg, c);
  }
  return writer.Take();
}

// The payload with the block stage undone: `payload` itself when the stage is
// off, else the decompressed bytes in *storage; nullptr when they are
// malformed.
const std::vector<uint8_t>* Unblock(const std::vector<uint8_t>& payload, const KsegCompression& c,
                                    std::optional<std::vector<uint8_t>>* storage) {
  if (!c.block) return &payload;
  *storage = BlockFrameDecode(payload);
  return storage->has_value() ? &**storage : nullptr;
}

}  // namespace

std::vector<uint8_t> EncodeTraceSegments(const EpochSlices& slices, const KsegCompression& c) {
  return EncodeStream(slices, SegmentKind::kTrace, c);
}

std::vector<uint8_t> EncodeAdviceSegments(const EpochSlices& slices, const KsegCompression& c) {
  return EncodeStream(slices, SegmentKind::kAdvice, c);
}

std::optional<std::vector<TraceEvent>> DecodeTraceSegmentPayload(
    const std::vector<uint8_t>& payload, uint8_t flags) {
  if ((flags & ~kFrameFlagsKnownMask) != 0) return std::nullopt;
  const KsegCompression c = KsegCompression::FromFlags(flags);
  std::optional<std::vector<uint8_t>> unblocked;
  const std::vector<uint8_t>* body = Unblock(payload, c, &unblocked);
  if (body == nullptr) return std::nullopt;
  if (c.lanes || c.dict) return DecodeCompactTracePayload(body->data(), body->size(), c);
  ByteReader reader(*body);
  auto window = Trace::Deserialize(&reader);
  if (!window || !reader.AtEnd()) return std::nullopt;
  return std::move(window->events);
}

std::optional<AdviceSegmentPayload> DecodeAdviceSegmentPayload(
    const std::vector<uint8_t>& payload, uint8_t flags) {
  if ((flags & ~kFrameFlagsKnownMask) != 0) return std::nullopt;
  const KsegCompression c = KsegCompression::FromFlags(flags);
  std::optional<std::vector<uint8_t>> unblocked;
  const std::vector<uint8_t>* body = Unblock(payload, c, &unblocked);
  if (body == nullptr) return std::nullopt;
  if (c.lanes || c.dict) return DecodeCompactAdvicePayload(body->data(), body->size(), c);
  ByteReader reader(*body);
  auto advice = Advice::Deserialize(&reader);
  if (!advice) return std::nullopt;
  auto imports = ContinuityImports::Deserialize(&reader);
  if (!imports || !reader.AtEnd()) return std::nullopt;
  AdviceSegmentPayload out;
  out.advice = std::move(*advice);
  out.imports = std::move(*imports);
  return out;
}

std::optional<LintDiagnostic> ReadEpochFrame(const SegmentRecord& rec, SegmentKind want,
                                             uint64_t expected_epoch, const char* container,
                                             EpochSegment* seg) {
  const auto finding = [&](const char* rule, std::string message) {
    return LintDiagnostic{rule, LintSeverity::kError,
                          std::string(container) + "[offset " + std::to_string(rec.offset) + "]",
                          std::move(message)};
  };
  if (rec.kind != want) {
    return finding(kKarSeg002, std::string("unexpected ") + SegmentKindName(rec.kind) +
                                   " frame where an epoch's " + SegmentKindName(want) +
                                   " frame belongs");
  }
  if (rec.epoch != expected_epoch) {
    const std::string got = std::to_string(rec.epoch);
    const std::string expected = " (expected epoch " + std::to_string(expected_epoch) + ")";
    return finding(kKarSeg003, rec.epoch < expected_epoch
                                   ? "duplicate or out-of-order frame for epoch " + got + expected
                                   : "epoch gap: frame for epoch " + got + expected);
  }
  const auto malformed = [&] {
    return finding(kKarSeg002, std::string(SegmentKindName(want)) +
                                   " segment payload for epoch " + std::to_string(rec.epoch) +
                                   " is malformed");
  };
  if (want == SegmentKind::kTrace) {
    auto window = DecodeTraceSegmentPayload(rec.payload, rec.flags);
    if (!window) return malformed();
    seg->window = std::move(*window);
  } else {
    auto payload = DecodeAdviceSegmentPayload(rec.payload, rec.flags);
    if (!payload) return malformed();
    seg->advice = std::move(payload->advice);
    seg->imports = std::move(payload->imports);
  }
  seg->epoch = expected_epoch;
  return std::nullopt;
}

SliceSource::SliceSource(EpochSlices&& slices) : owned_(std::move(slices)), slices_(&owned_) {}

const EpochSegment* SliceSource::Next() {
  if (slices_ == &owned_ && next_ > 0) {
    owned_.segments[next_ - 1] = EpochSegment();  // Consumed: free it.
  }
  if (next_ >= slices_->segments.size()) return nullptr;
  return &slices_->segments[next_++];
}

ContainerPairSource::ContainerPairSource(const std::vector<uint8_t>& trace_bytes,
                                         const std::vector<uint8_t>& advice_bytes) {
  trace_ = SegmentReader::FromBytes(trace_bytes.data(), trace_bytes.size(), &trace_open_error_);
  advice_ =
      SegmentReader::FromBytes(advice_bytes.data(), advice_bytes.size(), &advice_open_error_);
}

ContainerPairSource::ContainerPairSource(const std::string& trace_path,
                                         const std::string& advice_path) {
  trace_ = SegmentReader::OpenFile(trace_path, &trace_open_error_);
  advice_ = SegmentReader::OpenFile(advice_path, &advice_open_error_);
}

const EpochSegment* ContainerPairSource::Fail(const char* rule, std::string location,
                                              std::string message) {
  finding_ = LintDiagnostic{rule, LintSeverity::kError, std::move(location), std::move(message)};
  return nullptr;
}

const EpochSegment* ContainerPairSource::Next() {
  if (finding_) return nullptr;
  if (trace_ == nullptr) {
    return Fail(kKarSeg001, "trace", "unreadable segment container: " + trace_open_error_);
  }
  if (advice_ == nullptr) {
    return Fail(kKarSeg001, "advice", "unreadable segment container: " + advice_open_error_);
  }
  SegmentRecord trace_rec;
  bool have_trace = trace_->Next(&trace_rec);
  if (!have_trace && !trace_->ok()) {
    return Fail(kKarSeg001, "trace", "unreadable segment container: " + trace_->error());
  }
  SegmentRecord advice_rec;
  bool have_advice = advice_->Next(&advice_rec);
  if (!have_advice && !advice_->ok()) {
    return Fail(kKarSeg001, "advice", "unreadable segment container: " + advice_->error());
  }
  if (!have_trace && !have_advice) return nullptr;
  if (have_trace != have_advice) {
    uint64_t epoch = have_trace ? trace_rec.epoch : advice_rec.epoch;
    frames_ += 1;
    return Fail(kKarSeg010, have_trace ? "trace" : "advice",
                std::string("trace and advice streams disagree on the epoch set: the ") +
                    (have_trace ? "trace" : "advice") + " stream has a frame for epoch " +
                    std::to_string(epoch) + " but the " + (have_trace ? "advice" : "trace") +
                    " stream ended");
  }
  frames_ += 2;
  finding_ = ReadEpochFrame(trace_rec, SegmentKind::kTrace, next_epoch_, "trace", &segment_);
  if (!finding_) {
    finding_ = ReadEpochFrame(advice_rec, SegmentKind::kAdvice, next_epoch_, "advice", &segment_);
  }
  if (finding_) return nullptr;
  ++next_epoch_;
  return &segment_;
}

}  // namespace karousos
