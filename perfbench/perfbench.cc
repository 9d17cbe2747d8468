// perfbench: one record->verdict pass of a benchmark workload, over
// the real deployment path, with every role in its own process.
//
//   perfbench pass --workload stacks-oneshot --seed 7 --iter 0 --dir D
//                         [--trace 0|1] [--forge 1] [--inject-forgery 1] [--smoke 1]
//
// A pass generates the workload, starts a recording WireServer in a child
// process, drives it over KWIRE from this process (one load thread, at most
// four connections), lets the server store its record the way `karousos
// serve` does (raw Trace/Advice serialization), and then reaches a verdict
// in further child processes: one-shot (`audit`: decode + AuditOnly) or
// sharded (`shard`: decode + ShardRun + EncodeShardFile; K concurrent
// `audit-shard`: LoadShardBytes + RunShardAudit; `merge`:
// MergeShardArtifacts). The binary re-executes itself for each role, so
// each role's peak RSS is the kernel's wait4() number for that process
// alone. Children are started with posix_spawn (vfork semantics), so the
// parent's pages never count towards a child's peak.
//
// Every layer is timed from outside, around the public calls above; counts
// come from public result structs. Children report on stdout, one item a
// line: "M <name> <value>" for a measurement, "S <id> <parent> <name>
// <start> <end>" for a span (tracing only), "R <text>" for a rejection
// reason. Span times are CLOCK_MONOTONIC seconds, comparable across the
// processes of one machine. The pass reports in the same format, together
// with its children's spans; perfbench/run.py repeats passes and aggregates
// them.
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/audit/audit.h"
#include "src/common/kcodec.h"
#include "src/common/serde.h"
#include "src/net/client.h"
#include "src/net/wire_server.h"
#include "src/server/shard.h"
#include "src/verifier/shard_audit.h"
#include "src/workload/workload.h"

extern char** environ;

namespace karousos {
namespace {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Workloads. The reasons for each live in perfbench/README.md.

struct WorkloadSpec {
  std::string app;
  WorkloadKind kind = WorkloadKind::kMixed;
  size_t requests = 0;
  bool open_loop = false;
  double rate = 0;          // Open loop: offered requests per second.
  size_t connections = 4;
  size_t pipeline = 4;      // Closed loop: in-flight requests per connection.
  int window = 15;          // Server admission window (ServerConfig::concurrency).
  bool sharded = false;
  uint32_t shards = 4;
  uint64_t epoch = 50;
  unsigned audit_threads = 4;  // One-shot audit's VerifierConfig::threads.
};

WorkloadSpec LookupWorkload(const std::string& name, bool smoke) {
  WorkloadSpec w;
  if (name == "stacks-oneshot" || name == "stacks-shard") {
    w.app = "stacks";
    w.kind = WorkloadKind::kMixed;
    w.requests = smoke ? 120 : 1500;
    w.sharded = name == "stacks-shard";
    return w;
  }
  if (name == "motd-open") {
    w.app = "motd";
    w.kind = WorkloadKind::kReadHeavy;
    w.requests = smoke ? 400 : 12000;
    w.open_loop = true;
    w.rate = smoke ? 2000 : 4000;
    return w;
  }
  Die("unknown workload '" + name + "'");
}

AppSpec MakeApp(const std::string& name) {
  if (name == "stacks") {
    return MakeStacksApp();
  }
  if (name == "motd") {
    return MakeMotdApp();
  }
  Die("unknown app '" + name + "'");
}

// ---------------------------------------------------------------------------
// Arguments: "--key value" pairs after the role name.

using Args = std::map<std::string, std::string>;

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      Die(std::string("bad argument '") + argv[i] + "'");
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 0) {
    Die("flags come in --key value pairs");
  }
  return args;
}

std::string Arg(const Args& args, const std::string& key, const std::string& fallback = "") {
  auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

uint64_t ArgU64(const Args& args, const std::string& key, uint64_t fallback) {
  auto it = args.find(key);
  return it == args.end() ? fallback : std::strtoull(it->second.c_str(), nullptr, 10);
}

// ---------------------------------------------------------------------------
// Spans and measurements.

class SpanLog {
 public:
  SpanLog(bool enabled, std::string proc, std::string root_parent)
      : enabled_(enabled), proc_(std::move(proc)), root_parent_(std::move(root_parent)) {}

  struct Span {
    std::string id;
    std::string parent;
    std::string name;
    double start = 0;
    double end = 0;
  };

  // Opens a span under the innermost open one (or the process's root parent)
  // and returns its index.
  size_t Begin(const std::string& name) {
    Span s;
    s.id = proc_ + "." + std::to_string(spans_.size());
    s.parent = open_.empty() ? root_parent_ : spans_[open_.back()].id;
    s.name = name;
    s.start = Now();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  // Closes span `index` (the innermost open one) and returns its duration.
  double End(size_t index) {
    spans_[index].end = Now();
    open_.pop_back();
    return spans_[index].end - spans_[index].start;
  }

  // Id a child process should use as its root parent.
  std::string CurrentId() const { return open_.empty() ? root_parent_ : spans_[open_.back()].id; }
  const std::vector<Span>& spans() const { return spans_; }

  void Print() const {
    if (!enabled_) {
      return;
    }
    for (const Span& s : spans_) {
      std::printf("S %s %s %s %.9f %.9f\n", s.id.c_str(), s.parent.empty() ? "-" : s.parent.c_str(),
                  s.name.c_str(), s.start, s.end);
    }
  }

 private:
  bool enabled_;
  std::string proc_;
  std::string root_parent_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

// Times one scope as a span and adds its seconds to *seconds.
class Timed {
 public:
  Timed(SpanLog* log, const std::string& name, double* seconds = nullptr)
      : log_(log), index_(log->Begin(name)), seconds_(seconds) {}
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  ~Timed() {
    double d = log_->End(index_);
    if (seconds_ != nullptr) {
      *seconds_ += d;
    }
  }

 private:
  SpanLog* log_;
  size_t index_;
  double* seconds_;
};

void Emit(const std::string& name, double value) {
  std::printf("M %s %.17g\n", name.c_str(), value);
}

// ---------------------------------------------------------------------------
// Files.

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    Die("cannot read " + path);
  }
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    Die("cannot write " + path);
  }
}

Trace DecodeTrace(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  auto trace = Trace::Deserialize(&reader);
  if (!trace) {
    Die("malformed stored trace");
  }
  return std::move(*trace);
}

Advice DecodeAdvice(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  auto advice = Advice::Deserialize(&reader);
  if (!advice) {
    Die("malformed stored advice");
  }
  return std::move(*advice);
}

// The forgery `karousos tamper` makes: the first response is replaced.
void ForgeFirstResponse(Trace* trace) {
  for (TraceEvent& ev : trace->events) {
    if (ev.kind == TraceEvent::Kind::kResponse) {
      ev.payload = MakeMap({{"forged", true}});
      return;
    }
  }
}

void EmitVerdict(bool accepted, const std::string& reason) {
  Emit("accepted", accepted ? 1 : 0);
  if (!accepted) {
    std::printf("R %s\n", reason.c_str());
  }
}

// ---------------------------------------------------------------------------
// Roles. Each prints its measurements and exits 0 once it has a result
// (a rejection is a result); a non-zero exit means the role itself failed.

// server: bind, record until the client's shutdown frame drains the server,
// then store the record as `karousos serve --out-shards` does.
int RoleServer(const Args& args, SpanLog* spans) {
  const bool record = Arg(args, "mode") != "off";
  AppSpec app;
  std::unique_ptr<WireServer> server;
  {
    Timed t(spans, "server.construct");
    app = MakeApp(Arg(args, "app"));
    WireServerConfig config;
    config.listen = Arg(args, "listen");
    config.workers = 1;
    config.batch = false;
    config.server.mode = record ? CollectMode::kKarousos : CollectMode::kOff;
    config.server.concurrency = static_cast<int>(ArgU64(args, "window", 15));
    config.server.seed = ArgU64(args, "seed", 1);
    server = std::make_unique<WireServer>(*app.program, config);
  }
  {
    Timed t(spans, "net.bind");
    std::string error;
    if (!server->Start(&error)) {
      Die("server start: " + error);
    }
  }
  std::printf("ready %s\n", server->bound_address().c_str());
  std::fflush(stdout);

  WireServerReport report;
  {
    Timed t(spans, "net.serve");
    report = server->Wait();
  }
  if (!report.ok || report.shards.size() != 1) {
    Die("server: " + report.error);
  }
  const ServerRunResult& run = report.shards[0].run;
  Emit("net.serve_s", report.serve_seconds);
  Emit("net.frames", static_cast<double>(report.frames));
  Emit("net.protocol_errors", static_cast<double>(report.protocol_errors));
  Emit("net.read_disables", static_cast<double>(report.read_disables));
  Emit("net.peak_buffered_bytes", static_cast<double>(report.peak_connection_buffered_bytes));
  Emit("net.requests", static_cast<double>(report.requests));
  Emit("net.responses", static_cast<double>(report.responses));
  Emit("server.handler_activations", static_cast<double>(run.handler_activations));
  Emit("server.var_log_entries", static_cast<double>(run.var_log_entries));
  Emit("server.conflicts", static_cast<double>(run.conflicts));
  Emit("server.conflict_ratio",
       run.state_ops == 0 ? 0.0 : static_cast<double>(run.conflicts) / run.state_ops);
  if (record) {
    const std::string dir = Arg(args, "out");
    ByteWriter trace_bytes;
    ByteWriter advice_bytes;
    double encode_s = 0;
    {
      Timed t(spans, "serde.encode", &encode_s);
      run.trace.Serialize(&trace_bytes);
      run.advice.Serialize(&advice_bytes);
    }
    {
      Timed t(spans, "store.write");
      WriteBytes(dir + "/shard0.trace", trace_bytes.bytes());
      WriteBytes(dir + "/shard0.advice", advice_bytes.bytes());
    }
    Emit("serde.encode_s", encode_s);
    Emit("server.trace_bytes", static_cast<double>(trace_bytes.size()));
    Emit("server.advice_bytes", static_cast<double>(advice_bytes.size()));
  }
  return 0;
}

struct StoredRecord {
  Trace trace;
  Advice advice;
};

StoredRecord LoadRecord(const std::string& dir, SpanLog* spans, bool inject_forgery) {
  std::vector<uint8_t> trace_bytes;
  std::vector<uint8_t> advice_bytes;
  {
    Timed t(spans, "store.read");
    trace_bytes = ReadBytes(dir + "/shard0.trace");
    advice_bytes = ReadBytes(dir + "/shard0.advice");
  }
  StoredRecord record;
  double decode_s = 0;
  {
    Timed t(spans, "serde.decode", &decode_s);
    record.trace = DecodeTrace(trace_bytes);
    record.advice = DecodeAdvice(advice_bytes);
  }
  Emit("serde.decode_s", decode_s);
  if (inject_forgery) {
    ForgeFirstResponse(&record.trace);
  }
  return record;
}

// audit: the one-shot route, stored bytes -> AuditOnly verdict.
int RoleAudit(const Args& args, SpanLog* spans) {
  StoredRecord record = LoadRecord(Arg(args, "dir"), spans, Arg(args, "inject-forgery") == "1");
  AppSpec app = MakeApp(Arg(args, "app"));
  VerifierConfig config;
  config.threads = static_cast<unsigned>(ArgU64(args, "threads", 4));
  AuditResult audit;
  double audit_s = 0;
  {
    Timed t(spans, "verifier.audit", &audit_s);
    audit = AuditOnly(app, record.trace, record.advice, config);
  }
  const AuditProfile& p = audit.profile;
  const AuditStats& st = audit.stats;
  Emit("verifier.audit_s", audit_s);
  Emit("verifier.preprocess_s", p.preprocess_seconds);
  Emit("verifier.reexec_s", p.reexec_seconds);
  Emit("verifier.postprocess_s", p.postprocess_seconds);
  Emit("verifier.unaccounted_s",
       audit_s - p.preprocess_seconds - p.reexec_seconds - p.postprocess_seconds);
  Emit("verifier.groups", static_cast<double>(st.groups));
  Emit("verifier.handler_executions", static_cast<double>(st.handler_executions));
  Emit("verifier.ops_executed", static_cast<double>(st.ops_executed));
  Emit("verifier.graph_nodes", static_cast<double>(st.graph_nodes));
  Emit("verifier.graph_edges", static_cast<double>(st.graph_edges));
  Emit("verifier.isolation_dg_edges", static_cast<double>(st.isolation_dg_edges));
  Emit("verifier.advice_index_entries", static_cast<double>(p.advice_index_entries));
  Emit("verifier.arena_bytes", static_cast<double>(p.arena_bytes));
  Emit("verifier.dedup_ratio", st.handler_executions == 0
                                   ? 0.0
                                   : static_cast<double>(st.handler_lanes) / st.handler_executions);
  EmitVerdict(audit.accepted, audit.reason);
  return 0;
}

// shard: stored bytes -> K shard files (the `karousos shard` step).
int RoleShard(const Args& args, SpanLog* spans) {
  StoredRecord record = LoadRecord(Arg(args, "dir"), spans, Arg(args, "inject-forgery") == "1");
  const uint32_t k = static_cast<uint32_t>(ArgU64(args, "shards", 4));
  std::vector<ShardFile> shards;
  double partition_s = 0;
  {
    Timed t(spans, "shard.partition", &partition_s);
    shards = ShardRun(record.trace, record.advice, ArgU64(args, "epoch", 50),
                      ShardSpec{k, ShardMode::kHash});
  }
  size_t rmax = 0;
  size_t rmin = SIZE_MAX;
  for (const ShardFile& s : shards) {
    rmax = std::max(rmax, s.boundary.rids.size());
    rmin = std::min(rmin, s.boundary.rids.size());
  }
  const bool compress = Arg(args, "compress", "1") == "1";
  std::vector<std::vector<uint8_t>> files;
  double encode_s = 0;
  {
    Timed t(spans, "kseg.encode", &encode_s);
    for (const ShardFile& s : shards) {
      files.push_back(compress ? EncodeShardFile(s, KsegCompression::All()) : EncodeShardFile(s));
    }
  }
  size_t stored = 0;
  {
    Timed t(spans, "store.write");
    const std::string out = Arg(args, "out-dir");
    for (size_t i = 0; i < files.size(); ++i) {
      if (!out.empty()) {
        WriteBytes(out + "/shard" + std::to_string(i) + ".kseg", files[i]);
      }
      stored += files[i].size();
    }
  }
  Emit("shard.partition_s", partition_s);
  Emit("shard.requests_max", static_cast<double>(rmax));
  Emit("shard.requests_min", static_cast<double>(rmin));
  Emit("kseg.encode_s", encode_s);
  Emit("kseg.stored_bytes", static_cast<double>(stored));
  return 0;
}

// audit-shard: one shard file -> its verdict artifact.
int RoleAuditShard(const Args& args, SpanLog* spans) {
  std::vector<uint8_t> bytes;
  {
    Timed t(spans, "store.read");
    bytes = ReadBytes(Arg(args, "file"));
  }
  ShardLoadResult loaded;
  double load_s = 0;
  {
    Timed t(spans, "kseg.load", &load_s);
    loaded = LoadShardBytes(bytes);
  }
  Emit("kseg.load_s", load_s);
  if (!loaded.ok) {
    EmitVerdict(false, loaded.reason);
    return 0;
  }
  AppSpec app = MakeApp(Arg(args, "app"));
  VerifierConfig config;
  config.threads = 1;
  config.prescreen = Arg(args, "prescreen", "1") == "1";
  ShardArtifact artifact;
  double audit_s = 0;
  {
    Timed t(spans, "shard_audit.audit", &audit_s);
    artifact = RunShardAudit(*app.program, loaded.file, config);
  }
  std::vector<uint8_t> encoded;
  {
    Timed t(spans, "shard_audit.encode");
    encoded = EncodeShardArtifact(artifact);
  }
  {
    Timed t(spans, "store.write");
    WriteBytes(Arg(args, "out"), encoded);
  }
  Emit("shard_audit.audit_s", audit_s);
  Emit("shard_audit.epochs", static_cast<double>(artifact.epochs));
  Emit("shard_audit.artifact_bytes", static_cast<double>(encoded.size()));
  Emit("shard_audit.gauge_resident_bytes", static_cast<double>(artifact.peak_resident));
  EmitVerdict(artifact.accepted, artifact.reason);
  return 0;
}

// merge: K artifacts -> the run's verdict.
int RoleMerge(const Args& args, SpanLog* spans) {
  const uint32_t k = static_cast<uint32_t>(ArgU64(args, "shards", 4));
  std::vector<std::vector<uint8_t>> files;
  {
    Timed t(spans, "store.read");
    for (uint32_t i = 0; i < k; ++i) {
      files.push_back(ReadBytes(Arg(args, "dir") + "/shard" + std::to_string(i) + ".artifact"));
    }
  }
  std::vector<ShardArtifact> artifacts;
  double merge_s = 0;
  {
    Timed t(spans, "merge.load", &merge_s);
    for (const std::vector<uint8_t>& f : files) {
      ShardArtifactLoadResult loaded = LoadShardArtifactBytes(f);
      if (!loaded.ok) {
        EmitVerdict(false, loaded.reason);
        return 0;
      }
      artifacts.push_back(std::move(loaded.artifact));
    }
  }
  AuditResult merged;
  {
    Timed t(spans, "merge.merge", &merge_s);
    merged = MergeShardArtifacts(artifacts);
  }
  Emit("merge.s", merge_s);
  Emit("verifier.isolation_dg_edges", static_cast<double>(merged.stats.isolation_dg_edges));
  EmitVerdict(merged.accepted, merged.reason);
  return 0;
}

// forge: the correctness gate's negative case, in one process and outside
// every timed window — the stored record with its first response forged,
// audited along the workload's route. The verdict must be REJECTED.
int RoleForge(const Args& args, SpanLog* spans) {
  StoredRecord record = LoadRecord(Arg(args, "dir"), spans, /*inject_forgery=*/true);
  AppSpec app = MakeApp(Arg(args, "app"));
  if (Arg(args, "route") != "shard") {
    VerifierConfig config;
    config.threads = static_cast<unsigned>(ArgU64(args, "threads", 4));
    AuditResult audit = AuditOnly(app, record.trace, record.advice, config);
    EmitVerdict(audit.accepted, audit.reason);
    return 0;
  }
  const uint32_t k = static_cast<uint32_t>(ArgU64(args, "shards", 4));
  std::vector<ShardFile> shards = ShardRun(record.trace, record.advice, ArgU64(args, "epoch", 50),
                                           ShardSpec{k, ShardMode::kHash});
  std::vector<ShardArtifact> artifacts;
  for (const ShardFile& s : shards) {
    ShardLoadResult loaded = LoadShardBytes(EncodeShardFile(s, KsegCompression::All()));
    if (!loaded.ok) {
      EmitVerdict(false, loaded.reason);
      return 0;
    }
    VerifierConfig config;
    config.threads = 1;
    ShardArtifactLoadResult artifact = LoadShardArtifactBytes(
        EncodeShardArtifact(RunShardAudit(*app.program, loaded.file, config)));
    if (!artifact.ok) {
      EmitVerdict(false, artifact.reason);
      return 0;
    }
    artifacts.push_back(std::move(artifact.artifact));
  }
  AuditResult merged = MergeShardArtifacts(artifacts);
  EmitVerdict(merged.accepted, merged.reason);
  return 0;
}

// ---------------------------------------------------------------------------
// Child processes (the pass side).

std::string SelfPath() {
  std::error_code ec;
  std::filesystem::path p = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) {
    Die("cannot resolve /proc/self/exe");
  }
  return p.string();
}

// How long the pass waits on a child or a socket before giving up.
constexpr int kChildTimeoutMs = 150000;

struct Child {
  pid_t pid = -1;
  int out_fd = -1;
  std::string buffer;  // Stdout read so far and not yet consumed.
};

struct ChildResult {
  bool ok = false;  // Exited 0.
  double peak_rss_mb = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> span_lines;
  std::string reason;
};

Child Spawn(const std::string& role, const std::vector<std::string>& flags) {
  static const std::string self = SelfPath();
  int fds[2];
  if (pipe(fds) != 0) {
    Die("pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> argv_s = {self, role};
  argv_s.insert(argv_s.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);
  Child child;
  int rc = posix_spawn(&child.pid, self.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    Die("posix_spawn " + role + ": " + std::strerror(rc));
  }
  child.out_fd = fds[0];
  return child;
}

// Reads more child stdout into child->buffer; false on EOF, error or timeout.
bool ReadMore(Child* child, int timeout_ms) {
  struct pollfd pfd = {child->out_fd, POLLIN, 0};
  int rc = poll(&pfd, 1, timeout_ms);
  if (rc <= 0) {
    return false;
  }
  char chunk[4096];
  ssize_t n = read(child->out_fd, chunk, sizeof(chunk));
  if (n <= 0) {
    return false;
  }
  child->buffer.append(chunk, static_cast<size_t>(n));
  return true;
}

// Waits for the server's "ready <address>" line; returns the address.
std::string AwaitReady(Child* child) {
  for (;;) {
    size_t nl = child->buffer.find('\n');
    if (nl != std::string::npos) {
      std::string line = child->buffer.substr(0, nl);
      child->buffer.erase(0, nl + 1);
      if (line.rfind("ready ", 0) == 0) {
        return line.substr(6);
      }
      continue;
    }
    if (!ReadMore(child, kChildTimeoutMs)) {
      return "";
    }
  }
}

// A child's measurement, 0 when it did not report one (a shard that
// rejected at load reports no audit figures).
double Metric(const ChildResult& r, const std::string& name) {
  auto it = r.metrics.find(name);
  return it == r.metrics.end() ? 0.0 : it->second;
}

ChildResult Finish(Child* child) {
  while (ReadMore(child, kChildTimeoutMs)) {
  }
  close(child->out_fd);
  ChildResult r;
  int status = 0;
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  if (wait4(child->pid, &status, 0, &ru) != child->pid) {
    return r;
  }
  r.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
  size_t pos = 0;
  while (pos < child->buffer.size()) {
    size_t nl = child->buffer.find('\n', pos);
    if (nl == std::string::npos) {
      nl = child->buffer.size();
    }
    std::string line = child->buffer.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.rfind("M ", 0) == 0) {
      size_t sp = line.find(' ', 2);
      if (sp != std::string::npos) {
        r.metrics[line.substr(2, sp - 2)] = std::strtod(line.c_str() + sp + 1, nullptr);
      }
    } else if (line.rfind("S ", 0) == 0) {
      r.span_lines.push_back(line.substr(2));
    } else if (line.rfind("R ", 0) == 0) {
      r.reason = line.substr(2);
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Load generator: one thread, C connections.

struct LoadResult {
  std::string error;  // Empty when every response came back.
  size_t sent = 0;
  size_t received = 0;
  double first_send = 0;
  double last_send = 0;
  double last_receive = 0;
  std::vector<double> latency;    // Seconds from scheduled send, by seq.
  std::vector<Value> responses;   // By seq.
};

// Closed loop (no arrival times): each connection keeps `pipeline` requests
// in flight and the next request goes to whichever connection has room.
// Open loop: request i goes out on connection i mod C at its arrival time,
// however many are outstanding. Latency runs from the scheduled send time,
// so a generator that falls behind charges the wait to the system.
LoadResult RunLoad(const std::vector<std::unique_ptr<WireConn>>& conns,
                   const OpenLoopWorkload& workload, size_t pipeline) {
  LoadResult r;
  const size_t n = workload.inputs.size();
  const size_t c_count = conns.size();
  const bool paced = !workload.arrival_seconds.empty();
  r.latency.assign(n, -1.0);
  r.responses.assign(n, Value());
  std::vector<double> due(n, 0);
  std::vector<size_t> conn_of(n, SIZE_MAX);
  std::vector<size_t> outstanding(c_count, 0);
  std::string error;
  const double start = Now();
  size_t next = 0;
  size_t rr = 0;

  auto receive = [&](size_t c) -> bool {
    uint64_t seq = 0;
    Value value;
    if (!conns[c]->ReadResponse(&seq, &value, kChildTimeoutMs, &error)) {
      r.error = "connection " + std::to_string(c) + ": " + error;
      return false;
    }
    const double at = Now();
    if (seq >= n || conn_of[seq] != c || r.latency[seq] >= 0) {
      r.error = "unexpected response seq " + std::to_string(seq);
      return false;
    }
    r.latency[seq] = at - due[seq];
    r.responses[seq] = std::move(value);
    r.last_receive = at;
    --outstanding[c];
    ++r.received;
    return true;
  };
  // Closed loop: the connection with room, scanning round-robin.
  auto free_conn = [&]() -> size_t {
    for (size_t k = 0; k < c_count; ++k) {
      size_t c = (rr + k) % c_count;
      if (outstanding[c] < pipeline) {
        rr = c + 1;
        return c;
      }
    }
    return SIZE_MAX;
  };

  std::vector<struct pollfd> pfds(c_count);
  while (r.received < n) {
    for (;;) {
      if (next >= n) {
        break;
      }
      size_t c = 0;
      if (paced) {
        if (start + workload.arrival_seconds[next] > Now()) {
          break;
        }
        c = next % c_count;
        due[next] = start + workload.arrival_seconds[next];
      } else {
        c = free_conn();
        if (c == SIZE_MAX) {
          break;
        }
        due[next] = Now();
      }
      const double at = Now();
      if (!conns[c]->SendRequest(next, workload.inputs[next], &error)) {
        r.error = "send " + std::to_string(next) + ": " + error;
        return r;
      }
      if (next == 0) {
        r.first_send = at;
      }
      r.last_send = at;
      conn_of[next] = c;
      ++outstanding[c];
      ++r.sent;
      ++next;
    }
    // Frames already buffered in userspace are invisible to poll().
    bool drained = false;
    for (size_t c = 0; c < c_count; ++c) {
      while (conns[c]->HasBufferedFrame()) {
        if (!receive(c)) {
          return r;
        }
        drained = true;
      }
    }
    if (drained) {
      continue;
    }
    struct timespec wait;
    struct timespec* timeout = nullptr;
    if (paced && next < n) {
      double until = std::max(0.0, start + workload.arrival_seconds[next] - Now());
      wait.tv_sec = static_cast<time_t>(until);
      wait.tv_nsec = static_cast<long>((until - static_cast<double>(wait.tv_sec)) * 1e9);
      timeout = &wait;
    } else {
      wait.tv_sec = kChildTimeoutMs / 1000;
      wait.tv_nsec = 0;
      timeout = &wait;
    }
    for (size_t c = 0; c < c_count; ++c) {
      pfds[c] = {conns[c]->fd(), static_cast<short>(outstanding[c] > 0 ? POLLIN : 0), 0};
    }
    int rc = ppoll(pfds.data(), pfds.size(), timeout, nullptr);
    if (rc < 0 && errno != EINTR) {
      r.error = std::string("poll: ") + std::strerror(errno);
      return r;
    }
    if (rc == 0 && !(paced && next < n)) {
      r.error = "timed out with " + std::to_string(n - r.received) + " responses outstanding";
      return r;
    }
    for (size_t c = 0; c < c_count && rc > 0; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      if (outstanding[c] == 0) {
        r.error = "connection " + std::to_string(c) + " closed by the server";
        return r;
      }
      if (!receive(c)) {
        return r;
      }
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// The pass.

struct Pass {
  WorkloadSpec w;
  std::string dir;
  uint64_t seed = 0;
  bool trace = false;
  SpanLog spans;
  std::map<std::string, double> m;    // Metrics of this pass.
  std::vector<std::string> span_lines;  // From children.
  std::vector<std::string> failures;  // One entry per failed operation class.
  size_t attempted = 0;
  size_t failed = 0;

  Pass(WorkloadSpec spec, std::string d, uint64_t s, bool t)
      : w(std::move(spec)), dir(std::move(d)), seed(s), trace(t), spans(t, "p", "") {}

  std::vector<std::string> Common(const std::string& proc) {
    return {"--trace", trace ? "1" : "0", "--proc", proc, "--parent", spans.CurrentId()};
  }

  ChildResult Run(const std::string& role, const std::string& proc,
                  std::vector<std::string> flags) {
    std::vector<std::string> all = Common(proc);
    all.insert(all.end(), flags.begin(), flags.end());
    Child child = Spawn(role, all);
    return Collect(&child, role);
  }

  ChildResult Collect(Child* child, const std::string& role) {
    ChildResult r = Finish(child);
    if (!r.ok) {
      Die(role + " process failed");
    }
    span_lines.insert(span_lines.end(), r.span_lines.begin(), r.span_lines.end());
    return r;
  }

  // One verdict the gate checks: `want` is the verdict the record deserves.
  void Verdict(const ChildResult& r, bool want, const std::string& what) {
    ++attempted;
    const bool accepted = Metric(r, "accepted") == 1;
    if (accepted != want) {
      ++failed;
      failures.push_back(what + (accepted ? ": ACCEPTED, want REJECTED"
                                          : ": REJECTED (" + r.reason + "), want ACCEPTED"));
    }
  }

  void Absorb(const ChildResult& r) {
    for (const auto& [k, v] : r.metrics) {
      if (k != "accepted") {
        m[k] = v;
      }
    }
  }

  std::vector<std::unique_ptr<WireConn>> Connect(const std::string& address) {
    std::vector<std::unique_ptr<WireConn>> conns;
    std::string error;
    for (size_t c = 0; c < w.connections; ++c) {
      auto conn = WireConn::Connect(address, &error);
      if (conn == nullptr) {
        Die("connect " + address + ": " + error);
      }
      conns.push_back(std::move(conn));
    }
    return conns;
  }

  // Starts a server child recording in `mode`; returns it with its address.
  Child StartServer(const std::string& proc, const std::string& mode, const std::string& sock,
                    std::string* address) {
    std::error_code ec;
    std::filesystem::remove(sock, ec);
    std::vector<std::string> flags = Common(proc);
    std::vector<std::string> more = {"--app", w.app, "--seed", std::to_string(seed), "--window",
                                     std::to_string(w.window), "--mode", mode, "--listen",
                                     "unix:" + sock, "--out", dir};
    flags.insert(flags.end(), more.begin(), more.end());
    Child child = Spawn("server", flags);
    *address = AwaitReady(&child);
    if (address->empty()) {
      Die("server did not come up");
    }
    return child;
  }

  // Ends a recording: the drain frame, then the server's exit.
  ChildResult Drain(const std::vector<std::unique_ptr<WireConn>>& conns, Child* server) {
    std::string error;
    if (!conns[0]->SendShutdown(conns.size(), &error)) {
      Die("shutdown frame: " + error);
    }
    return Collect(server, "server");
  }

  void Gate(const LoadResult& load, const ChildResult& server) {
    const size_t n = w.requests;
    attempted += n;
    size_t missing = n - std::min(n, load.received);
    if (!load.error.empty()) {
      failures.push_back("load: " + load.error);
    }
    const double served = Metric(server, "net.responses");
    if (load.sent != n || static_cast<double>(n) != served) {
      failures.push_back("sent " + std::to_string(load.sent) + ", received " +
                         std::to_string(load.received) + ", server answered " +
                         std::to_string(static_cast<size_t>(served)) + " of " + std::to_string(n));
    }
    const double perr = Metric(server, "net.protocol_errors");
    if (perr != 0) {
      failures.push_back("protocol errors: " + std::to_string(static_cast<size_t>(perr)));
    }
    failed += std::min(n, missing + static_cast<size_t>(perr));
  }

  // The client saw exactly the responses the stored trace records.
  void CheckTraceMatchesClient(const LoadResult& load) {
    ++attempted;
    Trace stored_trace = DecodeTrace(ReadBytes(dir + "/shard0.trace"));
    std::vector<std::string> stored;
    for (const TraceEvent& ev : stored_trace.events) {
      if (ev.kind == TraceEvent::Kind::kResponse) {
        ByteWriter b;
        b.WriteValue(ev.payload);
        stored.emplace_back(b.bytes().begin(), b.bytes().end());
      }
    }
    std::vector<std::string> seen;
    for (const Value& v : load.responses) {
      ByteWriter b;
      b.WriteValue(v);
      seen.emplace_back(b.bytes().begin(), b.bytes().end());
    }
    std::sort(stored.begin(), stored.end());
    std::sort(seen.begin(), seen.end());
    if (stored != seen) {
      ++failed;
      failures.push_back("stored trace responses differ from the responses clients received");
    }
  }

  std::vector<double> LatenciesMs(const LoadResult& load) {
    std::vector<double> ms;
    for (double s : load.latency) {
      if (s >= 0) {
        ms.push_back(s * 1e3);
      }
    }
    return ms;
  }

  // Sharded route: partition, K concurrent single-thread shard audits, merge.
  void ShardRoute(bool inject_forgery, double* audit_rss_mb) {
    ChildResult shard = Run("shard", "shd",
                            {"--dir", dir, "--out-dir", dir, "--shards", std::to_string(w.shards),
                             "--epoch", std::to_string(w.epoch), "--inject-forgery",
                             inject_forgery ? "1" : "0"});
    Absorb(shard);
    *audit_rss_mb = std::max(*audit_rss_mb, shard.peak_rss_mb);
    std::vector<ChildResult> audits = AuditShards("as", "1");
    double s_max = 0;
    double s_sum = 0;
    double rss_max = 0;
    double artifact_bytes = 0;
    double gauge_max = 0;
    double load_sum = 0;
    double epochs = 0;
    for (const ChildResult& a : audits) {
      const double s = Metric(a, "shard_audit.audit_s");
      s_max = std::max(s_max, s);
      s_sum += s;
      rss_max = std::max(rss_max, a.peak_rss_mb);
      artifact_bytes += Metric(a, "shard_audit.artifact_bytes");
      gauge_max = std::max(gauge_max, Metric(a, "shard_audit.gauge_resident_bytes"));
      load_sum += Metric(a, "kseg.load_s");
      epochs = std::max(epochs, Metric(a, "shard_audit.epochs"));
    }
    const double s_mean = s_sum / static_cast<double>(audits.size());
    m["shard_audit.s_max"] = s_max;
    m["shard_audit.s_mean"] = s_mean;
    m["shard_audit.s_sum"] = s_sum;
    m["shard_audit.imbalance"] = s_mean > 0 ? s_max / s_mean : 0;
    m["shard_audit.epochs"] = epochs;
    m["shard_audit.artifact_bytes"] = artifact_bytes;
    m["shard_audit.peak_rss_mb_max"] = rss_max;
    m["shard_audit.gauge_resident_bytes"] = gauge_max;
    m["kseg.load_s"] = load_sum;
    *audit_rss_mb = std::max(*audit_rss_mb, rss_max);
    ChildResult merge =
        Run("merge", "mrg", {"--dir", dir, "--shards", std::to_string(w.shards)});
    Absorb(merge);
    *audit_rss_mb = std::max(*audit_rss_mb, merge.peak_rss_mb);
    // A shard that rejects surfaces in the merged verdict, the run's one
    // verdict.
    Verdict(merge, true, "sharded verdict");
  }

  std::vector<ChildResult> AuditShards(const std::string& proc, const std::string& prescreen) {
    std::vector<Child> children;
    for (uint32_t i = 0; i < w.shards; ++i) {
      std::vector<std::string> flags = Common(proc + std::to_string(i));
      std::vector<std::string> more = {"--app", w.app, "--file",
                                       dir + "/shard" + std::to_string(i) + ".kseg", "--out",
                                       dir + "/shard" + std::to_string(i) + ".artifact",
                                       "--prescreen", prescreen};
      flags.insert(flags.end(), more.begin(), more.end());
      children.push_back(Spawn("audit-shard", flags));
    }
    std::vector<ChildResult> results;
    for (Child& c : children) {
      results.push_back(Collect(&c, "audit-shard"));
    }
    return results;
  }

  // Extra traced-run pass: the recording tax (paper Fig. 6), the same load
  // against an uninstrumented server.
  void OffPass(const OpenLoopWorkload& workload) {
    std::string address;
    Child server = StartServer("off", "off", dir + "/o.sock", &address);
    auto conns = Connect(address);
    LoadResult load = RunLoad(conns, workload, w.pipeline);
    Drain(conns, &server);
    if (!load.error.empty() || load.received != w.requests) {
      Die("uninstrumented pass: " + load.error);
    }
    std::vector<double> ms = LatenciesMs(load);
    std::sort(ms.begin(), ms.end());
    m["server.off_rps"] = static_cast<double>(load.received) / (load.last_receive - load.first_send);
    m["server.off_p50_ms"] = ms[ms.size() / 2];
  }

  int Main(const Args& args) {
    const bool inject_forgery = Arg(args, "inject-forgery") == "1";
    std::filesystem::create_directories(dir);
    const double t0 = Now();
    size_t root = spans.Begin("pass");

    WorkloadConfig wc;
    wc.app = w.app;
    wc.kind = w.kind;
    wc.requests = w.requests;
    wc.seed = seed;
    wc.connections = static_cast<int>(w.connections);
    wc.arrival = w.open_loop ? ArrivalPattern::kUniform : ArrivalPattern::kClosed;
    wc.mean_rate = w.rate;
    OpenLoopWorkload workload;
    {
      Timed t(&spans, "workload.gen", &m["workload.gen_s"]);
      workload = GenerateOpenLoop(wc);
    }
    std::string address;
    Child server;
    std::vector<std::unique_ptr<WireConn>> conns;
    {
      Timed t(&spans, "proc.server_start");
      server = StartServer("srv", "karousos", dir + "/s.sock", &address);
    }
    {
      Timed t(&spans, "net.connect");
      conns = Connect(address);
    }
    m["setup_s"] = Now() - t0;

    LoadResult load;
    {
      Timed t(&spans, "net.load");
      load = RunLoad(conns, workload, w.pipeline);
    }
    ChildResult srv;
    {
      Timed t(&spans, "proc.server_drain");
      srv = Drain(conns, &server);
    }
    conns.clear();
    Absorb(srv);
    Gate(load, srv);
    const double t_stored = Now();

    double audit_rss_mb = 0;
    {
      Timed t(&spans, "proc.audit");
      if (w.sharded) {
        ShardRoute(inject_forgery, &audit_rss_mb);
      } else {
        ChildResult audit = Run("audit", "aud",
                                {"--app", w.app, "--dir", dir, "--threads",
                                 std::to_string(w.audit_threads), "--inject-forgery",
                                 inject_forgery ? "1" : "0"});
        Absorb(audit);
        audit_rss_mb = audit.peak_rss_mb;
        Verdict(audit, true, "one-shot verdict");
      }
    }
    const double t_verdict = Now();

    const double record_s = load.last_receive - load.first_send;
    m["record_rps"] = record_s > 0 ? static_cast<double>(load.received) / record_s : 0;
    m["record_peak_rss_mb"] = srv.peak_rss_mb;
    m["audit_s"] = t_verdict - t_stored;
    m["audit_peak_rss_mb"] = audit_rss_mb;
    m["time_to_verdict_s"] = t_verdict - load.first_send;
    const double stored_bytes =
        w.sharded ? m["kseg.stored_bytes"] : m["server.advice_bytes"];
    m["advice_bytes_per_req"] = stored_bytes / static_cast<double>(w.requests);
    if (w.open_loop && load.sent > 1) {
      const double offered = workload.arrival_seconds.back() - workload.arrival_seconds.front();
      const double achieved = load.last_send - load.first_send;
      m["workload.achieved_rate_ratio"] = achieved > 0 ? offered / achieved : 0;
    } else {
      m["workload.achieved_rate_ratio"] = 1;
    }

    // Everything below is outside the timed record->verdict window.
    CheckTraceMatchesClient(load);
    if (Arg(args, "forge") == "1") {
      size_t extra = spans.Begin("extra.forge");
      ChildResult forged =
          Run("forge", "frg",
              {"--app", w.app, "--dir", dir, "--route", w.sharded ? "shard" : "oneshot",
               "--threads", std::to_string(w.audit_threads), "--shards",
               std::to_string(w.shards), "--epoch", std::to_string(w.epoch)});
      spans.End(extra);
      Verdict(forged, false, "forged record");
    }
    if (trace) {
      size_t extra = spans.Begin("extra.layers");
      Advice advice = DecodeAdvice(ReadBytes(dir + "/shard0.advice"));
      Advice::SizeBreakdown b = advice.MeasureSize();
      m["server.advice_bytes.tags"] = static_cast<double>(b.tags);
      m["server.advice_bytes.handler_logs"] = static_cast<double>(b.handler_logs);
      m["server.advice_bytes.var_logs"] = static_cast<double>(b.var_logs);
      m["server.advice_bytes.tx_logs"] = static_cast<double>(b.tx_logs);
      m["server.advice_bytes.write_order"] = static_cast<double>(b.write_order);
      m["server.advice_bytes.other"] = static_cast<double>(b.other);
      if (w.sharded) {
        ChildResult raw = Run("shard", "raw",
                              {"--dir", dir, "--out-dir", "", "--shards",
                               std::to_string(w.shards), "--epoch", std::to_string(w.epoch),
                               "--compress", "0"});
        const double stored = m["kseg.stored_bytes"];
        m["kseg.compression_ratio"] = stored > 0 ? Metric(raw, "kseg.stored_bytes") / stored : 0;
        double off_sum = 0;
        for (const ChildResult& a : AuditShards("np", "0")) {
          off_sum += Metric(a, "shard_audit.audit_s");
        }
        m["analysis.prescreen_s"] = m["shard_audit.s_sum"] - off_sum;
      }
      OffPass(workload);
      spans.End(extra);
    }
    spans.End(root);

    // The pass's report, in the children's line format plus "L" (latency
    // samples in ms, by seq), "F" (a gate failure) and "C" (attempted and
    // failed operations; always last, so a cut-short report is detectable).
    for (const auto& [name, value] : m) {
      Emit(name, value);
    }
    std::printf("L");
    for (double ms : LatenciesMs(load)) {
      std::printf(" %.6f", ms);
    }
    std::printf("\n");
    spans.Print();
    for (const std::string& line : span_lines) {
      std::printf("S %s\n", line.c_str());
    }
    for (const std::string& f : failures) {
      std::printf("F %s\n", f.c_str());
    }
    std::printf("C %zu %zu\n", attempted, failed);
    return 0;
  }
};

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench pass --workload NAME --seed N --iter I --dir DIR\n"
                 "                 [--trace 0|1] [--forge 0|1] [--inject-forgery 0|1]\n"
                 "                 [--smoke 0|1]\n");
    return 2;
  }
  // Every process dies with the one that started it, so a killed run leaves
  // nothing behind.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  const std::string role = argv[1];
  Args args = ParseArgs(argc, argv);
  const bool traced = Arg(args, "trace") == "1";
  if (role == "pass") {
    WorkloadSpec w = LookupWorkload(Arg(args, "workload"), Arg(args, "smoke") == "1");
    // Each pass of a run gets its own inputs, a pure function of (seed, iter).
    const uint64_t seed = ArgU64(args, "seed", 1) * 1000003ull + ArgU64(args, "iter", 0) + 1;
    Pass pass(w, Arg(args, "dir"), seed, traced);
    return pass.Main(args);
  }
  SpanLog spans(traced, Arg(args, "proc", role), Arg(args, "parent"));
  int rc = 2;
  if (role == "server") {
    rc = RoleServer(args, &spans);
  } else if (role == "audit") {
    rc = RoleAudit(args, &spans);
  } else if (role == "shard") {
    rc = RoleShard(args, &spans);
  } else if (role == "audit-shard") {
    rc = RoleAuditShard(args, &spans);
  } else if (role == "merge") {
    rc = RoleMerge(args, &spans);
  } else if (role == "forge") {
    rc = RoleForge(args, &spans);
  } else {
    std::fprintf(stderr, "unknown role '%s'\n", role.c_str());
  }
  spans.Print();
  std::fflush(stdout);
  return rc;
}

}  // namespace
}  // namespace karousos

int main(int argc, char** argv) { return karousos::Main(argc, argv); }
