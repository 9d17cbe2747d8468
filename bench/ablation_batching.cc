// Ablation A1 (§4.1 design choice): how much re-execution dedup does the
// batching granularity buy?
//   * karousos — group requests with the same *tree* of handlers (A relation
//     + per-handler control flow);
//   * orochi   — group only identical *sequences* of handlers;
//   * none     — every request re-executes alone (tags forced unique).
// Reported: group count, deduplicated handler-body executions, verification
// time. The gap between karousos and orochi grows with concurrency because
// interleaving scrambles handler sequences but not handler trees.
#include <chrono>
#include <cstdio>

#include "bench/figure_common.h"
#include "src/audit/audit.h"

namespace karousos {
namespace {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RunAblation(const std::string& app_name, WorkloadKind kind) {
  std::printf("\n[batching ablation] app=%s workload=\"%s\" requests=600\n", app_name.c_str(),
              WorkloadKindName(kind));
  std::printf("%12s %10s | %8s %10s %10s | %8s %10s %10s | %8s %10s\n", "concurrency", "strategy",
              "groups", "hdl execs", "time (s)", "groups", "hdl execs", "time (s)", "groups",
              "time (s)");
  std::printf("%25s  %30s  %30s  %20s\n", "", "---------- karousos ----------",
              "---------- orochi-js ---------", "----- unbatched ----");
  for (int concurrency : {1, 15, 60}) {
    WorkloadConfig wl;
    wl.app = app_name;
    wl.kind = kind;
    wl.requests = 600;
    wl.connections = concurrency;
    std::vector<Value> inputs = GenerateWorkload(wl);

    struct Sample {
      size_t groups = 0;
      size_t handler_execs = 0;
      double seconds = 0;
    };
    Sample samples[3];
    for (int strategy = 0; strategy < 3; ++strategy) {
      AppSpec app = MakeAppByName(app_name).value();
      ServerConfig config;
      config.mode = strategy == 1 ? CollectMode::kOrochi : CollectMode::kKarousos;
      config.concurrency = concurrency;
      Server server(*app.program, config);
      ServerRunResult run = server.Run(inputs);
      if (strategy == 2) {
        // Unbatched: force each request into its own group.
        for (auto& [rid, tag] : run.advice.tags) {
          tag = rid;
        }
      }
      double t0 = Now();
      AuditResult audit = AuditOnly(app, run.trace, run.advice, IsolationLevel::kSerializable);
      samples[strategy].seconds = Now() - t0;
      samples[strategy].groups = audit.stats.groups;
      samples[strategy].handler_execs = audit.stats.handler_executions;
      if (!audit.accepted) {
        std::fprintf(stderr, "BUG: ablation audit rejected: %s\n", audit.reason.c_str());
        std::exit(1);
      }
    }
    std::printf("%12d %10s | %8zu %10zu %10.4f | %8zu %10zu %10.4f | %8zu %10.4f\n", concurrency,
                "", samples[0].groups, samples[0].handler_execs, samples[0].seconds,
                samples[1].groups, samples[1].handler_execs, samples[1].seconds,
                samples[2].groups, samples[2].seconds);
  }
}

}  // namespace
}  // namespace karousos

int main() {
  using namespace karousos;
  PrintHeader("Ablation A1: batching granularity (tree vs sequence vs none)");
  RunAblation("stacks", WorkloadKind::kMixed);
  RunAblation("wiki", WorkloadKind::kWikiMix);
  RunAblation("motd", WorkloadKind::kMixed);
  return 0;
}
