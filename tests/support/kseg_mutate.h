// Systematic mutation catalog over KSEG segment streams, shared by the
// mutation fuzzer (tools/kseg_fuzz.cc) and the static-check bench. Three
// mutation families over one honest (trace, advice, epoch_requests) run:
//
//   * component — the nine adversarial seeds from tests/epoch_audit_test.cc
//     (forged responses, tampered/ghost/dropped log entries, inflated
//     opcounts, swapped write order, ...) applied to the monolith and then
//     sliced, so the defect survives honest slicing;
//   * slice — cross-epoch defects injected after slicing (content duplicated
//     into a foreign epoch, recurring write-order entries, tampered or
//     fabricated continuity imports): the KAR-SEG rule family's home turf;
//   * frame — byte-level container damage (payload/CRC/kind/epoch bytes,
//     dropped/duplicated/swapped/truncated frames, header corruption) against
//     every frame of both encoded streams;
//   * codec — damage to storage-class compressed (v2) streams: unknown or
//     stripped flag bits (the flags byte is outside the CRC), a dropped block
//     stage, stored-payload truncation with the length and CRC fixed up, and
//     declared-decoded-size tampering on blocked frames. The container framing
//     stays honest, so only the codec layer can reject these.
//
// Every mutation is semantic: an audit must reject it (statically or
// dynamically), and neither the checker nor the audit may crash on it.
#ifndef TESTS_SUPPORT_KSEG_MUTATE_H_
#define TESTS_SUPPORT_KSEG_MUTATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/server/advice.h"
#include "src/trace/trace.h"

namespace karousos {

struct KsegMutation {
  std::string name;  // Family:detail, e.g. "frame:trace[3]:payload-flip@0".
  std::vector<uint8_t> trace_bytes;
  std::vector<uint8_t> advice_bytes;
};

// Builds the full corpus for one honest run. Deterministic: same inputs,
// same mutations in the same order. Mutations that do not apply to this run
// (e.g. no found GET in the schedule) are skipped, so size the run to make
// every family fire when a floor matters.
std::vector<KsegMutation> BuildMutationCorpus(const Trace& trace, const Advice& advice,
                                              uint64_t epoch_requests);

}  // namespace karousos

#endif  // TESTS_SUPPORT_KSEG_MUTATE_H_
