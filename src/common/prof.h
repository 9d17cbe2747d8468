// Built-in phase profiler for the audit hot path.
//
// The verifier times its three phases (Preprocess / ReExec / Postprocess)
// with RAII PhaseTimers and threads allocation and operation counters into an
// AuditProfile that rides along on every AuditResult. The profile is
// observational only: nothing in the audit verdict, reason, diagnostics, or
// AuditStats depends on it, so it is exempt from the parallel engine's
// bit-identical determinism contract (wall-clock times differ run to run by
// nature).
//
// Consumers: `karousos audit --profile` (JSON to stdout) and
// bench/audit_hotpath (BENCH_audit_hotpath.json).
#ifndef SRC_COMMON_PROF_H_
#define SRC_COMMON_PROF_H_

#include <chrono>
#include <cstddef>
#include <string>

namespace karousos {

// Per-phase wall-clock breakdown and hot-path counters for one Audit() call.
struct AuditProfile {
  double preprocess_seconds = 0;
  double reexec_seconds = 0;
  double postprocess_seconds = 0;
  double total_seconds = 0;
  // Input file reads and decode ahead of (or, for container frames, between)
  // the audit's phases; filled by the CLI, not the verifier, and outside
  // total_seconds.
  double read_seconds = 0;
  double decode_seconds = 0;

  // Allocation counters: bytes handed out by the per-group re-execution
  // arenas, and entries in the hashed advice indices built during Preprocess.
  size_t arena_bytes = 0;
  size_t advice_index_entries = 0;
  // Deduplicated operation executions (copy of AuditStats::ops_executed, so
  // profile consumers can compute ops/sec without carrying AuditStats too).
  size_t ops_executed = 0;

  // Deduplicated re-execution throughput; 0 when the phase took no time.
  double OpsPerSecond() const {
    return reexec_seconds > 0 ? static_cast<double>(ops_executed) / reexec_seconds : 0;
  }
};

// RAII wall-clock timer: adds the scope's elapsed seconds to *sink.
class PhaseTimer {
 public:
  explicit PhaseTimer(double* sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() { Stop(); }

  // Stops early (idempotent); returns the elapsed seconds of this timer.
  double Stop() {
    if (sink_ != nullptr) {
      elapsed_ = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
      *sink_ += elapsed_;
      sink_ = nullptr;
    }
    return elapsed_;
  }

 private:
  double* sink_;
  double elapsed_ = 0;
  std::chrono::steady_clock::time_point start_;
};

// Renders the profile as a self-contained JSON object (used verbatim by
// `karousos audit --profile`; the bench embeds the same fields per row).
std::string AuditProfileToJson(const AuditProfile& profile);

}  // namespace karousos

#endif  // SRC_COMMON_PROF_H_
