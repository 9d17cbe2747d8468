#include "bench/figure_common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/audit/audit.h"
#include "src/baseline/sequential.h"
#include "src/common/kcodec.h"
#include "src/server/rollover.h"

namespace karousos {

namespace {

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<Value> Inputs(const FigureSpec& spec, const FigureOptions& options, int concurrency) {
  WorkloadConfig wl;
  wl.app = spec.app;
  wl.kind = spec.kind;
  wl.requests = options.requests;
  wl.seed = options.seed;
  wl.connections = concurrency;
  return GenerateWorkload(wl);
}

ServerRunResult RunServer(const FigureSpec& spec, const FigureOptions& options, int concurrency,
                          CollectMode mode, size_t warmup) {
  AppSpec app = MakeAppByName(spec.app).value();
  ServerConfig config;
  config.mode = mode;
  config.concurrency = concurrency;
  config.seed = options.seed;
  config.warmup_requests = warmup;
  Server server(*app.program, config);
  return server.Run(Inputs(spec, options, concurrency));
}

}  // namespace

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintServerOverhead(const FigureSpec& spec, const FigureOptions& options) {
  std::printf("\n[server overhead] app=%s workload=\"%s\" requests=%zu (warmup %zu)\n",
              spec.app.c_str(), WorkloadKindName(spec.kind), options.requests, options.warmup);
  std::printf("%12s %16s %16s %10s\n", "concurrency", "unmodified (s)", "karousos (s)",
              "overhead");
  for (int concurrency : options.concurrencies) {
    std::vector<double> base_times;
    std::vector<double> karousos_times;
    for (int rep = 0; rep < options.reps; ++rep) {
      base_times.push_back(
          RunServer(spec, options, concurrency, CollectMode::kOff, options.warmup)
              .serve_seconds);
      karousos_times.push_back(
          RunServer(spec, options, concurrency, CollectMode::kKarousos, options.warmup)
              .serve_seconds);
    }
    double base = Median(base_times);
    double karousos = Median(karousos_times);
    std::printf("%12d %16.4f %16.4f %9.2fx\n", concurrency, base, karousos,
                base > 0 ? karousos / base : 0.0);
  }
}

void PrintVerification(const FigureSpec& spec, const FigureOptions& options) {
  std::printf("\n[verification time] app=%s workload=\"%s\" requests=%zu\n", spec.app.c_str(),
              WorkloadKindName(spec.kind), options.requests);
  unsigned par_threads = options.audit_threads;
  std::printf("%12s %14s %14s %14s %14s %9s %9s\n", "concurrency", "karousos (s)",
              ("k-par" + std::to_string(par_threads) + " (s)").c_str(), "orochi-js (s)",
              "sequential(s)", "k-groups", "o-groups");
  for (int concurrency : options.concurrencies) {
    ServerRunResult karousos_run =
        RunServer(spec, options, concurrency, CollectMode::kKarousos, 0);
    ServerRunResult orochi_run = RunServer(spec, options, concurrency, CollectMode::kOrochi, 0);

    std::vector<double> k_times;
    std::vector<double> kp_times;
    std::vector<double> o_times;
    std::vector<double> s_times;
    size_t k_groups = 0;
    size_t o_groups = 0;
    for (int rep = 0; rep < options.reps; ++rep) {
      {
        AppSpec app = MakeAppByName(spec.app).value();
        double t0 = Now();
        AuditResult audit =
            AuditOnly(app, karousos_run.trace, karousos_run.advice, IsolationLevel::kSerializable);
        k_times.push_back(Now() - t0);
        k_groups = audit.stats.groups;
        if (!audit.accepted) {
          std::fprintf(stderr, "BUG: karousos audit rejected: %s\n", audit.reason.c_str());
          std::exit(1);
        }
      }
      {
        AppSpec app = MakeAppByName(spec.app).value();
        double t0 = Now();
        AuditResult audit =
            AuditOnly(app, karousos_run.trace, karousos_run.advice,
                      VerifierConfig{IsolationLevel::kSerializable, par_threads});
        kp_times.push_back(Now() - t0);
        if (!audit.accepted) {
          std::fprintf(stderr, "BUG: parallel audit rejected: %s\n", audit.reason.c_str());
          std::exit(1);
        }
      }
      {
        AppSpec app = MakeAppByName(spec.app).value();
        double t0 = Now();
        AuditResult audit =
            AuditOnly(app, orochi_run.trace, orochi_run.advice, IsolationLevel::kSerializable);
        o_times.push_back(Now() - t0);
        o_groups = audit.stats.groups;
        if (!audit.accepted) {
          std::fprintf(stderr, "BUG: orochi audit rejected: %s\n", audit.reason.c_str());
          std::exit(1);
        }
      }
      {
        AppSpec app = MakeAppByName(spec.app).value();
        double t0 = Now();
        SequentialReplay(app, karousos_run.trace);
        s_times.push_back(Now() - t0);
      }
    }
    std::printf("%12d %14.4f %14.4f %14.4f %14.4f %9zu %9zu\n", concurrency, Median(k_times),
                Median(kp_times), Median(o_times), Median(s_times), k_groups, o_groups);
  }
}

void PrintAdviceSize(const FigureSpec& spec, const FigureOptions& options) {
  std::printf("\n[advice size] app=%s workload=\"%s\" requests=%zu\n", spec.app.c_str(),
              WorkloadKindName(spec.kind), options.requests);
  std::printf("%12s %14s %14s %12s %14s %14s %14s %10s\n", "concurrency", "karousos (B)",
              "orochi-js (B)", "k/o ratio", "k varlog (B)", "k varlog frac", "k packed (B)",
              "pack ratio");
  // Storage-class stored size: the run sliced at 50-request epochs and
  // encoded with every codec stage (lanes + dict + block), i.e. the bytes a
  // Karousos server actually ships under --compress all.
  constexpr uint64_t kPackEpochSize = 50;
  for (int concurrency : options.concurrencies) {
    ServerRunResult karousos_run =
        RunServer(spec, options, concurrency, CollectMode::kKarousos, 0);
    ServerRunResult orochi_run = RunServer(spec, options, concurrency, CollectMode::kOrochi, 0);
    Advice::SizeBreakdown k = karousos_run.advice.MeasureSize();
    Advice::SizeBreakdown o = orochi_run.advice.MeasureSize();
    EpochSlices slices = SliceRun(karousos_run.trace, karousos_run.advice, kPackEpochSize);
    const size_t packed = EncodeAdviceSegments(slices, KsegCompression::All()).size();
    std::printf("%12d %14zu %14zu %11.2f%% %14zu %13.1f%% %14zu %9.2fx\n", concurrency, k.total,
                o.total,
                o.total > 0 ? 100.0 * static_cast<double>(k.total) / static_cast<double>(o.total)
                            : 0.0,
                k.var_logs,
                k.total > 0 ? 100.0 * static_cast<double>(k.var_logs) /
                                  static_cast<double>(k.total)
                            : 0.0,
                packed,
                packed > 0 ? static_cast<double>(k.total) / static_cast<double>(packed) : 0.0);
  }
}

}  // namespace karousos
