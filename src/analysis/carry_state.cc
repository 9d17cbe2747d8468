#include "src/analysis/carry_state.h"

#include <algorithm>
#include <sstream>

#include "src/analysis/lint.h"

namespace karousos {

namespace {

std::string VarLogLoc(VarId vid, const OpRef& op) {
  std::ostringstream out;
  out << "var_logs[0x" << std::hex << vid << std::dec << "][" << op.ToString() << "]";
  return out.str();
}

std::string TxImportLoc(const TxOpRef& ref) { return "imports[" + ref.ToString() + "]"; }

std::string VarImportLoc(VarId vid, const OpRef& op) {
  std::ostringstream out;
  out << "imports[var 0x" << std::hex << vid << std::dec << " " << op.ToString() << "]";
  return out.str();
}

void Emit(const char* rule, std::string location, std::string message,
          std::vector<LintDiagnostic>* out) {
  out->push_back(
      LintDiagnostic{rule, LintSeverity::kError, std::move(location), std::move(message)});
}

// Calls `place(rid, location)` for every piece of slice content owned by a
// request, with the location built lazily (only findings pay for it).
template <typename Place>
void ForEachOwnedContent(const Advice& advice, Place&& place) {
  for (const auto& [rid, tag] : advice.tags) {
    place(rid, [rid = rid] { return "tags[r" + std::to_string(rid) + "]"; });
  }
  for (const auto& [rid, log] : advice.handler_logs) {
    place(rid, [rid = rid] { return "handler_logs[r" + std::to_string(rid) + "]"; });
  }
  for (const auto& [vid, log] : advice.var_logs) {
    for (const auto& [op, entry] : log) {
      place(op.rid, [vid = vid, &op] { return VarLogLoc(vid, op); });
    }
  }
  for (const auto& [txn, log] : advice.tx_logs) {
    place(txn.rid, [&txn] { return "tx_logs[r" + std::to_string(txn.rid) + "]"; });
  }
  for (const auto& [rid, by] : advice.response_emitted_by) {
    place(rid, [rid = rid] { return "response_emitted_by[r" + std::to_string(rid) + "]"; });
  }
  for (const auto& [key, count] : advice.opcounts) {
    place(key.first, [rid = key.first, hid = key.second] {
      return "opcounts[(r" + std::to_string(rid) + ",h" + std::to_string(hid) + ")]";
    });
  }
  for (const auto& [op, record] : advice.nondet) {
    place(op.rid, [&op] { return "nondet[" + op.ToString() + "]"; });
  }
}

// A hash table's keys in sorted order: the checkpoint must be canonical.
template <typename K, typename V>
std::vector<K> SortedKeys(const FlatMap<K, V>& map) {
  std::vector<K> keys;
  keys.reserve(map.size());
  for (const auto& entry : map) {
    keys.push_back(entry.first);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// The resolution carries' per-entry writers, shared by the checkpoint and
// the running byte count, so the count is exactly what the tables serialize
// to.
void WriteCarryEntry(const TxnKey& txn, uint32_t size, ByteWriter* out) {
  out->WriteVarint(txn.rid);
  out->WriteVarint(txn.tid);
  out->WriteVarint(size);
}

void WriteCarryEntry(const TxOpRef& ref, const CarryState::PutCarry& put, ByteWriter* out) {
  SerializeTxOpRef(ref, out);
  out->WriteString(put.key);
  out->WriteValue(put.value);
  out->WriteVarint(put.hid);
  out->WriteVarint(put.opnum);
}

void WriteCarryEntry(const CarryState::VarKey& key, const CarryState::VarCarry& carry,
                     ByteWriter* out) {
  out->WriteVarint(key.first);
  SerializeOpRef(key.second, out);
  out->WriteBool(carry.is_write);
  if (carry.is_write) {
    out->WriteValue(carry.value);
  }
}

template <typename K, typename V>
size_t CarryEntryBytes(const K& key, const V& value, ByteWriter* scratch) {
  scratch->Clear();
  WriteCarryEntry(key, value, scratch);
  return scratch->size();
}

// A table's entry bytes, without its size prefix.
template <typename Table>
size_t CarryTableBytes(const Table& table, ByteWriter* scratch) {
  size_t bytes = 0;
  for (const auto& [key, value] : table) {
    bytes += CarryEntryBytes(key, value, scratch);
  }
  return bytes;
}

template <typename Table>
void WriteCarryTable(const Table& table, ByteWriter* out) {
  out->WriteVarint(table.size());
  for (const auto& [key, value] : table) {
    WriteCarryEntry(key, value, out);
  }
}

}  // namespace

std::string RejectReasonFor(const LintDiagnostic& d) {
  bool seg = d.rule.rfind("KAR-SEG", 0) == 0;
  bool file_layer = d.rule == kKarSeg001 || d.rule == kKarSeg002 || d.rule == kKarSeg003 ||
                    d.rule == kKarSeg010;
  const char* prefix = !seg ? "advice lint: " : file_layer ? "segment stream: " : "model check: ";
  return prefix + d.Format();
}

void CarryState::Begin(uint64_t epoch_requests) {
  *this = CarryState();
  epoch_requests_ = epoch_requests;
}

void CarryState::RegisterImports(const ContinuityImports& imports) {
  // Every allegation is recorded; direction is checked in CheckImports so the
  // per-epoch diagnostics keep catalogue order.
  for (const auto& imp : imports.tx_ops) {
    tx_imports_.emplace(imp.ref, Pending<ContinuityImports::TxOpImport>{imp, epochs_});
  }
  for (const auto& imp : imports.var_entries) {
    var_imports_.emplace(VarKey{imp.vid, imp.op},
                         Pending<ContinuityImports::VarImport>{imp, epochs_});
  }
}

void CarryState::CheckEpoch(const Advice& slice, const ContinuityImports& imports,
                            const RidScope& scope, std::vector<LintDiagnostic>* out) const {
  CheckDuplicateClaims(slice, out);        // 004
  CheckOpcountEpochs(slice, out);          // 005
  CheckWriteOrderRecurrence(slice, out);   // 006
  CheckContentOwnership(slice, scope, out);  // 007, backward half
  CheckImports(slice, imports, scope, out);  // 008
}

// KAR-SEG-004: an operation executes in exactly one epoch, so coordinates
// already claimed by a completed epoch's log entry cannot recur. The slice's
// own duplicates are KAR-ADV-006's finding; only the cross-epoch probe lives
// here (claimed_ops_ holds strictly earlier epochs until Fold).
void CarryState::CheckDuplicateClaims(const Advice& slice,
                                      std::vector<LintDiagnostic>* out) const {
  auto claim = [&](const OpRef& op, auto&& loc) {
    auto it = claimed_ops_.find(op);
    if (it != claimed_ops_.end()) {
      Emit(kKarSeg004, loc(),
           "operation " + op.ToString() + " was already claimed by a log entry in epoch " +
               std::to_string(it->second),
           out);
    }
  };
  for (const auto& [rid, log] : slice.handler_logs) {
    for (size_t i = 0; i < log.size(); ++i) {
      claim(OpRef{rid, log[i].hid, log[i].opnum}, [rid = rid, i] {
        return "handler_logs[r" + std::to_string(rid) + "][" + std::to_string(i) + "]";
      });
    }
  }
  for (const auto& [txn, log] : slice.tx_logs) {
    for (size_t i = 0; i < log.size(); ++i) {
      claim(OpRef{txn.rid, log[i].hid, log[i].opnum}, [&txn, i] {
        return "tx_logs[" + TxOpRef{txn.rid, txn.tid, static_cast<uint32_t>(i) + 1}.ToString() +
               "]";
      });
    }
  }
  for (const auto& [vid, log] : slice.var_logs) {
    for (const auto& [op, entry] : log) {
      claim(op, [vid = vid, &op] { return VarLogLoc(vid, op); });
    }
  }
}

// KAR-SEG-005: a handler's opcount is declared once, in its owning epoch; a
// second declaration could silently widen the operation space re-execution
// trusts.
void CarryState::CheckOpcountEpochs(const Advice& slice,
                                    std::vector<LintDiagnostic>* out) const {
  for (const auto& [key, count] : slice.opcounts) {
    auto it = opcount_epochs_.find(key);
    if (it != opcount_epochs_.end()) {
      Emit(kKarSeg005,
           "opcounts[(r" + std::to_string(key.first) + ",h" + std::to_string(key.second) + ")]",
           "opcount for handler h" + std::to_string(key.second) + " of request " +
               std::to_string(key.first) + " was already declared in epoch " +
               std::to_string(it->second),
           out);
    }
  }
}

// KAR-SEG-006: the chunks concatenate to one alleged total order, so an entry
// recurring in a later chunk is the cross-epoch form of KAR-ADV-010's cycle,
// caught here per epoch instead of at Finish.
void CarryState::CheckWriteOrderRecurrence(const Advice& slice,
                                           std::vector<LintDiagnostic>* out) const {
  const WriteOrder& order = slice.write_order;
  for (size_t i = 0; i < order.size(); ++i) {
    auto it = write_order_epochs_.find(order[i]);
    if (it != write_order_epochs_.end()) {
      Emit(kKarSeg006, "write_order[" + std::to_string(i) + "]",
           "write-order entry " + order[i].ToString() + " already appeared in epoch " +
               std::to_string(it->second) + "'s chunk",
           out);
    }
  }
}

// KAR-SEG-007, backward half: content for a completed epoch's request. The
// forward half (content ahead of its epoch) is recorded by Fold and judged at
// Finish, once the last epoch is known. Misplacement is only meaningful for
// real requests; phantom rids are KAR-ADV-001's finding.
void CarryState::CheckContentOwnership(const Advice& slice, const RidScope& scope,
                                       std::vector<LintDiagnostic>* out) const {
  ForEachOwnedContent(slice, [&](RequestId rid, auto&& loc) {
    uint64_t owner = EpochOfRid(rid, epoch_requests_);
    if (owner < epochs_ && scope.trace->count(rid) != 0) {
      Emit(kKarSeg007, loc(),
           "advice content for request " + std::to_string(rid) + " (epoch " +
               std::to_string(owner) + ") appears in epoch " + std::to_string(epochs_) +
               "'s slice",
           out);
    }
  });
}

// KAR-SEG-008, per-epoch half: direction of this epoch's allegations, and
// confirmation of earlier allegations whose target epoch just arrived against
// the live slice.
void CarryState::CheckImports(const Advice& slice, const ContinuityImports& imports,
                              const RidScope& scope, std::vector<LintDiagnostic>* out) const {
  auto direction = [&](RequestId target_rid, auto&& loc) {
    uint64_t target = EpochOfRid(target_rid, epoch_requests_);
    if (target <= epochs_ && !scope.Foreign(target_rid)) {
      Emit(kKarSeg008, loc(),
           "continuity import does not point forward (registered in epoch " +
               std::to_string(epochs_) + ", target epoch " + std::to_string(target) + ")",
           out);
    }
  };
  for (const auto& imp : imports.tx_ops) {
    direction(imp.ref.rid, [&imp] { return TxImportLoc(imp.ref); });
  }
  for (const auto& imp : imports.var_entries) {
    direction(imp.op.rid, [&imp] { return VarImportLoc(imp.vid, imp.op); });
  }

  // Imports targeting this epoch: its requests are the rids [lo, hi), and the
  // keys order by rid (tx) or by (vid, rid) (var), so each is one range (per
  // variable), and the scan stays linear over the stream. Epoch 0 has no
  // earlier registration to confirm.
  if (epochs_ == 0 || epoch_requests_ == 0) {
    return;
  }
  const RequestId lo = epochs_ * epoch_requests_ + 1;
  const RequestId hi = lo + epoch_requests_;
  auto confirm = [&](const auto& pending, const auto& real, RequestId rid, auto&& loc) {
    if (pending.registered_epoch < epochs_ && !scope.Foreign(rid) &&
        !ImportMatches(pending.imp, real())) {
      Emit(kKarSeg008, loc(),
           "continuity import does not match the advice it mirrors (epoch " +
               std::to_string(epochs_) + " arrived)",
           out);
    }
  };
  for (auto it = tx_imports_.lower_bound(TxOpRef{lo, 0, 0});
       it != tx_imports_.end() && it->first.rid < hi; ++it) {
    const TxOpRef& ref = it->first;
    confirm(
        it->second, [&] { return karousos::DescribeTxOp(slice, ref); }, ref.rid,
        [&] { return TxImportLoc(ref); });
  }
  for (auto it = var_imports_.begin(); it != var_imports_.end();) {
    const VarId vid = it->first.first;
    for (it = var_imports_.lower_bound(VarKey{vid, OpRef{lo, 0, 0}});
         it != var_imports_.end() && it->first.first == vid && it->first.second.rid < hi; ++it) {
      const OpRef& op = it->first.second;
      confirm(
          it->second, [&] { return karousos::DescribeVarEntry(slice, vid, op); }, op.rid,
          [&] { return VarImportLoc(vid, op); });
    }
    it = var_imports_.upper_bound(VarKey{vid, OpRef{~RequestId{0}, ~HandlerId{0}, ~OpNum{0}}});
  }
}

template <typename Table, typename Key, typename Carry>
void CarryState::SetCarry(Table* table, const Key& key, Carry carry, ByteWriter* scratch) {
  auto [it, inserted] = table->try_emplace(key);
  if (!inserted) {
    resolution_carry_bytes_ -= CarryEntryBytes(it->first, it->second, scratch);
  }
  it->second = std::move(carry);
  resolution_carry_bytes_ += CarryEntryBytes(it->first, it->second, scratch);
}

void CarryState::Fold(const Advice& slice, const RidScope& scope) {
  for (const auto& [rid, log] : slice.handler_logs) {
    for (const HandlerLogEntry& e : log) {
      claimed_ops_.emplace(OpRef{rid, e.hid, e.opnum}, epochs_);
    }
  }
  // Transaction shapes + PUT payloads, and var-log entries (reads kind-only:
  // nothing ever feeds from a read).
  ByteWriter scratch;
  for (const auto& [txn, log] : slice.tx_logs) {
    SetCarry(&txn_sizes_, txn, static_cast<uint32_t>(log.size()), &scratch);
    for (uint32_t i = 1; i <= log.size(); ++i) {
      const TxOperation& op = log[i - 1];
      claimed_ops_.emplace(OpRef{txn.rid, op.hid, op.opnum}, epochs_);
      if (op.type == TxOpType::kPut) {
        SetCarry(&puts_, TxOpRef{txn.rid, txn.tid, i},
                 PutCarry{op.key, op.put_value, op.hid, op.opnum}, &scratch);
      }
    }
  }
  for (const auto& [vid, log] : slice.var_logs) {
    for (const auto& [op, entry] : log) {
      bool is_write = entry.kind == VarLogEntry::Kind::kWrite;
      SetCarry(&vars_, VarKey{vid, op}, VarCarry{is_write, is_write ? entry.value : Value()},
               &scratch);
      claimed_ops_.emplace(op, epochs_);
      if (!entry.prec.IsNil() && entry.prec != op) {
        prec_edges_.emplace(VarKey{vid, op}, PrecEdge{entry.prec, epochs_});
      }
    }
  }
  for (const auto& [key, count] : slice.opcounts) {
    opcount_epochs_.emplace(key, epochs_);
  }
  for (const TxOpRef& w : slice.write_order) {
    write_order_epochs_.emplace(w, epochs_);
  }
  write_order_.insert(write_order_.end(), slice.write_order.begin(), slice.write_order.end());
  // Forward content is only legal as the final slice's clamped tail; Finish
  // judges it once the last epoch is known.
  ForEachOwnedContent(slice, [&](RequestId rid, auto&& loc) {
    uint64_t owner = EpochOfRid(rid, epoch_requests_);
    if (owner > epochs_ && scope.trace->count(rid) != 0) {
      early_content_.push_back(EarlyContent{epochs_, owner, loc()});
    }
  });
  ++epochs_;
}

ResolvedTxOp CarryState::ResolveTxOp(const TxOpRef& ref) const {
  auto size_it = txn_sizes_.find(TxnKey{ref.rid, ref.tid});
  if (size_it != txn_sizes_.end()) {
    ResolvedTxOp out;
    out.txn_present = true;
    if (ref.index >= 1 && ref.index <= size_it->second) {
      out.op_present = true;
      auto put_it = puts_.find(ref);
      if (put_it != puts_.end()) {
        out.is_put = true;
        out.key = put_it->second.key;
        out.put_value = &put_it->second.value;
        out.hid = put_it->second.hid;
        out.opnum = put_it->second.opnum;
      }
    }
    return out;
  }
  auto imp_it = tx_imports_.find(ref);
  if (imp_it != tx_imports_.end()) {
    const ContinuityImports::TxOpImport& imp = imp_it->second.imp;
    ResolvedTxOp out;
    out.txn_present = imp.txn_present;
    out.op_present = imp.op_present;
    if (imp.op_present) {
      out.is_put = static_cast<TxOpType>(imp.type) == TxOpType::kPut;
      out.key = imp.key;
      out.put_value = &imp.value;
      out.hid = imp.hid;
      out.opnum = imp.opnum;
    }
    return out;
  }
  return ResolvedTxOp{};
}

ResolvedVarEntry CarryState::ResolveVarEntry(VarId vid, const OpRef& op) const {
  auto carry_it = vars_.find({vid, op});
  if (carry_it != vars_.end()) {
    const VarCarry& carry = carry_it->second;
    return {true, carry.is_write, carry.is_write ? &carry.value : nullptr};
  }
  auto imp_it = var_imports_.find({vid, op});
  if (imp_it != var_imports_.end() && imp_it->second.imp.present) {
    const ContinuityImports::VarImport& imp = imp_it->second.imp;
    return {true, static_cast<VarLogEntry::Kind>(imp.kind) == VarLogEntry::Kind::kWrite,
            &imp.value};
  }
  return {};
}

ContinuityImports::TxOpImport CarryState::DescribeTxOp(const TxOpRef& ref) const {
  ContinuityImports::TxOpImport d;
  d.ref = ref;
  auto size_it = txn_sizes_.find(TxnKey{ref.rid, ref.tid});
  if (size_it == txn_sizes_.end()) {
    return d;
  }
  d.txn_present = true;
  if (ref.index < 1 || ref.index > size_it->second) {
    return d;
  }
  d.op_present = true;
  auto put_it = puts_.find(ref);
  if (put_it == puts_.end()) {
    // Only PUT-ness matters to any confirmation consumer.
    d.type = static_cast<uint8_t>(TxOpType::kGet);
    return d;
  }
  d.type = static_cast<uint8_t>(TxOpType::kPut);
  d.key = put_it->second.key;
  d.value = put_it->second.value;
  d.hid = put_it->second.hid;
  d.opnum = put_it->second.opnum;
  return d;
}

ContinuityImports::VarImport CarryState::DescribeVarEntry(VarId vid, const OpRef& op) const {
  ContinuityImports::VarImport d;
  d.vid = vid;
  d.op = op;
  auto carry_it = vars_.find({vid, op});
  if (carry_it != vars_.end()) {
    d.present = true;
    d.kind = static_cast<uint8_t>(carry_it->second.is_write ? VarLogEntry::Kind::kWrite
                                                            : VarLogEntry::Kind::kRead);
    d.value = carry_it->second.value;
  }
  return d;
}

void CarryState::Finish(bool run_rules, std::vector<LintDiagnostic>* out) const {
  // The write-order rules are global, so they run over the concatenated order
  // before any KAR-SEG finish rule, which an order error pre-empts.
  size_t first_new = out->size();
  LintWriteOrder(write_order_, [this](const TxOpRef& ref) { return ResolveTxOp(ref); }, out);
  for (size_t i = first_new; i < out->size(); ++i) {
    if ((*out)[i].severity == LintSeverity::kError) {
      return;
    }
  }
  if (!run_rules) {
    return;
  }
  FinishEarlyContent(out);  // 007, forward half
  FinishImports(out);       // 008, residual closure
  FinishPrecChains(out);    // 009
}

// KAR-SEG-007, forward half: content ahead of its epoch is legal only as the
// final slice's clamped tail (rids beyond the last trace epoch land there, so
// the not-in-trace rule reports them as the one-shot audit would).
void CarryState::FinishEarlyContent(std::vector<LintDiagnostic>* out) const {
  uint64_t last = epochs_ == 0 ? 0 : epochs_ - 1;
  for (const EarlyContent& e : early_content_) {
    if (e.owner_epoch <= last || e.seen_epoch != last) {
      Emit(kKarSeg007, e.location,
           "advice content for epoch " + std::to_string(e.owner_epoch) +
               " appeared early in epoch " + std::to_string(e.seen_epoch) + "'s slice",
           out);
    }
  }
}

// KAR-SEG-008, residual half: allegations whose target epoch never arrived
// mirror nothing, so they may only claim absence. Targets that did arrive
// were confirmed (or reported non-forward) when their epoch was checked.
void CarryState::FinishImports(std::vector<LintDiagnostic>* out) const {
  for (const auto& [ref, pending] : tx_imports_) {
    if (EpochOfRid(ref.rid, epoch_requests_) >= epochs_ &&
        (pending.imp.txn_present || pending.imp.op_present)) {
      Emit(kKarSeg008, TxImportLoc(ref), "continuity import claims content beyond the final epoch",
           out);
    }
  }
  for (const auto& [key, pending] : var_imports_) {
    if (EpochOfRid(key.second.rid, epoch_requests_) >= epochs_ && pending.imp.present) {
      Emit(kKarSeg008, VarImportLoc(key.first, key.second),
           "continuity import claims content beyond the final epoch", out);
    }
  }
}

// KAR-SEG-009: each var-log entry names at most one predecessor, so the prec
// relation is a functional graph per variable; one forward walk with path
// marking finds every cycle in linear time. Cycles confined to a single epoch
// are left to the dynamic chain checks (a one-shot audit could never fire a
// KAR-SEG rule); only cycles spanning epochs report here.
void CarryState::FinishPrecChains(std::vector<LintDiagnostic>* out) const {
  FlatMap<VarKey, uint8_t> color;  // 0 new, 1 on path, 2 done.
  for (const auto& [start, start_edge] : prec_edges_) {
    if (color[start] != 0) {
      continue;
    }
    std::vector<VarKey> path;
    VarKey cur = start;
    while (true) {
      uint8_t& c = color[cur];
      if (c == 2) {
        break;
      }
      if (c == 1) {
        // Found a cycle: the tail of `path` from the first occurrence of cur.
        size_t first = 0;
        while (path[first] != cur) {
          ++first;
        }
        std::set<uint64_t> epochs_in_cycle;
        std::ostringstream cycle;
        for (size_t i = first; i < path.size(); ++i) {
          const PrecEdge& edge = prec_edges_.find(path[i])->second;
          epochs_in_cycle.insert(edge.epoch);
          cycle << " " << path[i].second.ToString() << "@e" << edge.epoch;
        }
        if (epochs_in_cycle.size() >= 2) {
          std::ostringstream loc;
          loc << "var_logs[0x" << std::hex << cur.first << std::dec << "]";
          Emit(kKarSeg009, loc.str(),
               "variable prec chain is cyclic across epochs:" + cycle.str(), out);
        }
        break;
      }
      c = 1;
      path.push_back(cur);
      auto edge_it = prec_edges_.find(cur);
      if (edge_it == prec_edges_.end()) {
        break;
      }
      cur = {cur.first, edge_it->second.prec};
    }
    for (const auto& node : path) {
      color[node] = 2;
    }
  }
}

std::string CarryState::ConfirmImports(const RidScope& scope) const {
  // Wrong continuity data can only cause rejection (§2.1's advice property,
  // applied to the slicer). Foreign targets are the merge's to confirm.
  for (const auto& [ref, pending] : tx_imports_) {
    if (!scope.Foreign(ref.rid) && !ImportMatches(pending.imp, DescribeTxOp(ref))) {
      return "continuity import for " + ref.ToString() + " does not match the advice it mirrors";
    }
  }
  for (const auto& [key, pending] : var_imports_) {
    if (!scope.Foreign(key.second.rid) &&
        !ImportMatches(pending.imp, DescribeVarEntry(key.first, key.second))) {
      return "continuity import for variable log entry " + key.second.ToString() +
             " does not match the advice it mirrors";
    }
  }
  return "";
}

void CarryState::WriteResolutionCarries(ByteWriter* out) const {
  WriteCarryTable(txn_sizes_, out);
  WriteCarryTable(puts_, out);
  WriteCarryTable(vars_, out);
}

void CarryState::Serialize(ByteWriter* out) const {
  out->WriteVarint(epoch_requests_);
  out->WriteVarint(epochs_);
  WriteResolutionCarries(out);

  out->WriteVarint(tx_imports_.size());
  for (const auto& [ref, pending] : tx_imports_) {
    const ContinuityImports::TxOpImport& imp = pending.imp;
    SerializeTxOpRef(ref, out);
    out->WriteBool(imp.txn_present);
    out->WriteBool(imp.op_present);
    out->WriteByte(imp.type);
    out->WriteString(imp.key);
    out->WriteValue(imp.value);
    out->WriteVarint(imp.hid);
    out->WriteVarint(imp.opnum);
    out->WriteVarint(pending.registered_epoch);
  }
  out->WriteVarint(var_imports_.size());
  for (const auto& [key, pending] : var_imports_) {
    const ContinuityImports::VarImport& imp = pending.imp;
    out->WriteVarint(key.first);
    SerializeOpRef(key.second, out);
    out->WriteBool(imp.present);
    out->WriteByte(imp.kind);
    out->WriteValue(imp.value);
    out->WriteVarint(pending.registered_epoch);
  }
  out->WriteVarint(write_order_.size());
  for (const TxOpRef& ref : write_order_) {
    SerializeTxOpRef(ref, out);
  }

  auto claimed = SortedKeys(claimed_ops_);
  out->WriteVarint(claimed.size());
  for (const OpRef& op : claimed) {
    SerializeOpRef(op, out);
    out->WriteVarint(claimed_ops_.find(op)->second);
  }
  auto opcount_keys = SortedKeys(opcount_epochs_);
  out->WriteVarint(opcount_keys.size());
  for (const auto& key : opcount_keys) {
    out->WriteVarint(key.first);
    out->WriteVarint(key.second);
    out->WriteVarint(opcount_epochs_.find(key)->second);
  }
  auto wo_keys = SortedKeys(write_order_epochs_);
  out->WriteVarint(wo_keys.size());
  for (const TxOpRef& ref : wo_keys) {
    SerializeTxOpRef(ref, out);
    out->WriteVarint(write_order_epochs_.find(ref)->second);
  }
  auto prec_keys = SortedKeys(prec_edges_);
  out->WriteVarint(prec_keys.size());
  for (const VarKey& key : prec_keys) {
    const PrecEdge& edge = prec_edges_.find(key)->second;
    out->WriteVarint(key.first);
    SerializeOpRef(key.second, out);
    SerializeOpRef(edge.prec, out);
    out->WriteVarint(edge.epoch);
  }
  out->WriteVarint(early_content_.size());
  for (const EarlyContent& e : early_content_) {
    out->WriteVarint(e.seen_epoch);
    out->WriteVarint(e.owner_epoch);
    out->WriteString(e.location);
  }
}

void CarryState::Deserialize(CkptReader* in) {
  CkptReader& c = *in;
  epoch_requests_ = c.V();
  epochs_ = c.V();
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    TxnKey txn;
    txn.rid = c.V();
    txn.tid = c.V();
    txn_sizes_[txn] = static_cast<uint32_t>(c.V());
  }
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    PutCarry& put = puts_[c.Tx()];
    put.key = c.S();
    put.value = c.Val();
    put.hid = c.V();
    put.opnum = static_cast<OpNum>(c.V());
  }
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    VarId vid = c.V();
    VarCarry& carry = vars_[{vid, c.Op()}];
    carry.is_write = c.Bool();
    if (carry.is_write) {
      carry.value = c.Val();
    }
  }
  ByteWriter scratch;
  resolution_carry_bytes_ = CarryTableBytes(txn_sizes_, &scratch) +
                            CarryTableBytes(puts_, &scratch) + CarryTableBytes(vars_, &scratch);

  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    TxOpRef ref = c.Tx();
    Pending<ContinuityImports::TxOpImport>& pending = tx_imports_[ref];
    ContinuityImports::TxOpImport& imp = pending.imp;
    imp.ref = ref;
    imp.txn_present = c.Bool();
    imp.op_present = c.Bool();
    imp.type = c.B();
    imp.key = c.S();
    imp.value = c.Val();
    imp.hid = c.V();
    imp.opnum = static_cast<OpNum>(c.V());
    pending.registered_epoch = c.V();
  }
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    VarId vid = c.V();
    OpRef op = c.Op();
    Pending<ContinuityImports::VarImport>& pending = var_imports_[{vid, op}];
    ContinuityImports::VarImport& imp = pending.imp;
    imp.vid = vid;
    imp.op = op;
    imp.present = c.Bool();
    imp.kind = c.B();
    imp.value = c.Val();
    pending.registered_epoch = c.V();
  }
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    write_order_.push_back(c.Tx());
  }

  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    OpRef op = c.Op();
    claimed_ops_.emplace(op, c.V());
  }
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    RequestId rid = c.V();
    HandlerId hid = c.V();
    opcount_epochs_.emplace(std::make_pair(rid, hid), c.V());
  }
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    TxOpRef ref = c.Tx();
    write_order_epochs_.emplace(ref, c.V());
  }
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    VarId vid = c.V();
    OpRef op = c.Op();
    OpRef prec = c.Op();
    prec_edges_.emplace(VarKey{vid, op}, PrecEdge{prec, c.V()});
  }
  for (size_t i = c.N(); i > 0 && c.ok; --i) {
    EarlyContent e;
    e.seen_epoch = c.V();
    e.owner_epoch = c.V();
    e.location = c.S();
    early_content_.push_back(std::move(e));
  }
}

}  // namespace karousos
