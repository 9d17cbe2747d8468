// Figure 7 companion: the parallel audit engine's thread sweep. Serves one
// multi-group workload per app, then audits the same (trace, advice) pair at
// 1, 2, 4, and all hardware threads, printing the speedup over the serial
// path and asserting that every thread count yields the same verdict and
// stats (the engine's determinism contract). Results are also written to
// BENCH_fig7_parallel.json in the working directory.
//
// Usage: fig7_parallel [output.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/audit/audit.h"
#include "src/common/pool.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

struct Row {
  std::string app;
  size_t groups = 0;
  unsigned threads = 0;
  double seconds = 0;
  double speedup = 1.0;
};

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

int Main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_fig7_parallel.json";
  const size_t kRequests = 600;
  const int kReps = 3;
  std::vector<unsigned> sweep = {1, 2, 4};
  unsigned hw = WorkStealingPool::ResolveThreads(0);
  if (std::find(sweep.begin(), sweep.end(), hw) == sweep.end()) {
    sweep.push_back(hw);
  }
  // On a single-core host every "parallel" row is just the serial path plus
  // scheduling overhead; printing those ratios as speedups would be
  // misleading, so they are flagged here and suppressed in the table.
  const bool speedup_meaningful = hw > 1;

  std::printf("=== Figure 7 companion: parallel audit thread sweep ===\n");
  std::printf("HARDWARE THREADS: %u\n", hw);
  std::printf("(%zu requests per app; medians of %d reps)\n", kRequests, kReps);
  if (!speedup_meaningful) {
    std::printf("NOTE: single hardware thread -- speedup columns are not "
                "meaningful and are suppressed.\n");
  }

  std::vector<Row> rows;
  for (const std::string& name : {std::string("motd"), std::string("stacks"),
                                  std::string("wiki")}) {
    WorkloadConfig wl;
    wl.app = name;
    wl.kind = name == "wiki" ? WorkloadKind::kWikiMix : WorkloadKind::kMixed;
    wl.requests = kRequests;
    wl.seed = 7;
    wl.connections = 15;  // Many interleavings -> many distinct groups.
    std::vector<Value> inputs = GenerateWorkload(wl);

    AppSpec app = MakeAppByName(name).value();
    ServerConfig config;
    config.concurrency = 15;
    config.seed = 7;
    Server server(*app.program, config);
    ServerRunResult run = server.Run(inputs);

    AuditResult serial;
    double serial_seconds = 0;
    std::printf("\n[%s] %zu requests\n", name.c_str(), inputs.size());
    std::printf("%9s %12s %9s\n", "threads", "audit (s)", "speedup");
    for (unsigned threads : sweep) {
      std::vector<double> times;
      AuditResult audit;
      for (int rep = 0; rep < kReps; ++rep) {
        AppSpec fresh = MakeAppByName(name).value();
        double t0 = Now();
        audit = AuditOnly(fresh, run.trace, run.advice,
                          VerifierConfig{IsolationLevel::kSerializable, threads});
        times.push_back(Now() - t0);
      }
      if (!audit.accepted) {
        std::fprintf(stderr, "BUG: audit rejected at threads=%u: %s\n", threads,
                     audit.reason.c_str());
        return 1;
      }
      double median = Median(times);
      if (threads == 1) {
        serial = audit;
        serial_seconds = median;
      } else if (audit.stats.groups != serial.stats.groups ||
                 audit.stats.ops_executed != serial.stats.ops_executed ||
                 audit.stats.graph_edges != serial.stats.graph_edges) {
        std::fprintf(stderr, "BUG: stats diverge between threads=1 and threads=%u\n", threads);
        return 1;
      }
      Row row;
      row.app = name;
      row.groups = audit.stats.groups;
      row.threads = threads;
      row.seconds = median;
      row.speedup = median > 0 ? serial_seconds / median : 0.0;
      rows.push_back(row);
      if (speedup_meaningful) {
        std::printf("%9u %12.4f %8.2fx\n", threads, median, row.speedup);
      } else {
        std::printf("%9u %12.4f %9s\n", threads, median, "--");
      }
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "failed to open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"fig7_parallel\",\n  \"requests\": %zu,\n"
                    "  \"hardware_threads\": %u,\n  \"speedup_meaningful\": %s,\n  \"rows\": [\n",
               kRequests, hw, speedup_meaningful ? "true" : "false");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    // Emit speedup only when the host could actually run threads in
    // parallel; otherwise mark the row so downstream tooling (and readers)
    // don't average noise into a "scaling" number.
    if (speedup_meaningful) {
      std::fprintf(out,
                   "    {\"app\": \"%s\", \"groups\": %zu, \"threads\": %u, "
                   "\"seconds\": %.6f, \"speedup\": %.3f}%s\n",
                   r.app.c_str(), r.groups, r.threads, r.seconds, r.speedup,
                   i + 1 < rows.size() ? "," : "");
    } else {
      std::fprintf(out,
                   "    {\"app\": \"%s\", \"groups\": %zu, \"threads\": %u, "
                   "\"seconds\": %.6f, \"speedup\": null}%s\n",
                   r.app.c_str(), r.groups, r.threads, r.seconds,
                   i + 1 < rows.size() ? "," : "");
    }
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace karousos

int main(int argc, char** argv) { return karousos::Main(argc, argv); }
