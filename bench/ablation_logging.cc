// Ablation A2 (§4.2 design choice): how much advice does R-ordered-aware
// logging save? Karousos logs a variable access only when it is R-concurrent
// with the dictating/preceding write; the log-all alternative (what Orochi-JS
// does, and what a naive record-replay would do) logs every access.
//
// Reported per application: logged variable accesses, variable-log bytes and
// total advice bytes under both policies. MOTD is the adversarial case where
// the two coincide (§6.2: every access is R-concurrent, so Karousos logs
// everything too); stacks and wiki show the savings.
#include <cstdio>

#include "bench/figure_common.h"
#include "src/audit/audit.h"

namespace karousos {
namespace {

void RunAblation(const std::string& app_name, WorkloadKind kind, int concurrency) {
  WorkloadConfig wl;
  wl.app = app_name;
  wl.kind = kind;
  wl.requests = 600;
  wl.connections = concurrency;
  std::vector<Value> inputs = GenerateWorkload(wl);

  size_t entries[2];
  size_t varlog_bytes[2];
  size_t total_bytes[2];
  size_t accesses = 0;
  for (int policy = 0; policy < 2; ++policy) {
    AppSpec app = MakeAppByName(app_name).value();
    ServerConfig config;
    config.mode = policy == 0 ? CollectMode::kKarousos : CollectMode::kOrochi;
    config.concurrency = concurrency;
    Server server(*app.program, config);
    ServerRunResult run = server.Run(inputs);
    Advice::SizeBreakdown size = run.advice.MeasureSize();
    entries[policy] = run.advice.var_log_entry_count();
    varlog_bytes[policy] = size.var_logs;
    total_bytes[policy] = size.total;
    accesses = run.var_accesses;
  }
  std::printf("%8s %12d %10zu | %10zu %12zu %12zu | %10zu %12zu %12zu | %7.1f%%\n",
              app_name.c_str(), concurrency, accesses, entries[0], varlog_bytes[0],
              total_bytes[0], entries[1], varlog_bytes[1], total_bytes[1],
              entries[1] > 0
                  ? 100.0 * (1.0 - static_cast<double>(entries[0]) /
                                       static_cast<double>(entries[1]))
                  : 0.0);
}

}  // namespace
}  // namespace karousos

int main() {
  using namespace karousos;
  PrintHeader("Ablation A2: R-ordered-aware logging vs log-all");
  std::printf("%8s %12s %10s | %10s %12s %12s | %10s %12s %12s | %8s\n", "app", "concurrency",
              "accesses", "logged", "varlog B", "advice B", "logged", "varlog B", "advice B",
              "saved");
  std::printf("%33s %38s %38s\n", "", "------- R-concurrent only -------",
              "----------- log-all -----------");
  for (int concurrency : {1, 15, 60}) {
    RunAblation("motd", WorkloadKind::kMixed, concurrency);
    RunAblation("stacks", WorkloadKind::kMixed, concurrency);
    RunAblation("wiki", WorkloadKind::kWikiMix, concurrency);
  }
  return 0;
}
