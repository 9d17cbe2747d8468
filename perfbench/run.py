#!/usr/bin/env python3
"""Karousos record->verdict benchmark.

    python3 perfbench/run.py --workload stacks-oneshot --seed 1 --seconds 48 --trace 0

Builds the perfbench binary (libkarousos plus perfbench.cc, Release) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then repeats
record->verdict passes of the workload for --seconds, each pass with inputs
derived from (--seed, pass index), and prints one JSON result as the last
stdout line. --trace 0 reports the end-to-end metrics; --trace 1 runs each
input set twice, traced and untraced, reports the per-layer metrics, the layer
self-time table and the tracing overhead, and writes the spans of the run to
$CARGO_TARGET_DIR/perfbench/spans/<run id>.json.

--smoke runs tiny inputs; --inject-forgery feeds the forged record to the
timed audit, so the correctness gate must fail (perfbench/selftest.py uses
both). Run from the repository root. See perfbench/README.md.
"""
import argparse
import collections
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("stacks-oneshot", "stacks-shard", "motd-open")

END_TO_END = [
    ("setup_s", "s"),
    ("record_rps", "1/s"),
    ("record_p50_ms", "ms"),
    ("record_p99_ms", "ms"),
    ("record_peak_rss_mb", "MB"),
    ("advice_bytes_per_req", "B"),
    ("audit_s", "s"),
    ("audit_peak_rss_mb", "MB"),
    ("time_to_verdict_s", "s"),
]

# Span layers (the span name's first component) in the self-time table.
SELF_LAYERS = ("pass", "workload", "proc", "net", "server", "serde", "store", "shard", "kseg",
               "verifier", "shard_audit", "merge")

PER_LAYER = [
    ("workload.gen_s", "s"),
    ("workload.achieved_rate_ratio", "ratio"),
    ("net.serve_s", "s"),
    ("net.frames", "count"),
    ("net.protocol_errors", "count"),
    ("net.read_disables", "count"),
    ("net.peak_buffered_bytes", "B"),
    ("server.handler_activations", "count"),
    ("server.var_log_entries", "count"),
    ("server.conflicts", "count"),
    ("server.conflict_ratio", "ratio"),
    ("server.advice_bytes", "B"),
    ("server.advice_bytes.tags", "B"),
    ("server.advice_bytes.handler_logs", "B"),
    ("server.advice_bytes.var_logs", "B"),
    ("server.advice_bytes.tx_logs", "B"),
    ("server.advice_bytes.write_order", "B"),
    ("server.advice_bytes.other", "B"),
    ("server.trace_bytes", "B"),
    ("server.off_rps", "1/s"),
    ("server.off_p50_ms", "ms"),
    ("serde.encode_s", "s"),
    ("serde.decode_s", "s"),
    ("shard.partition_s", "s"),
    ("shard.requests_max", "count"),
    ("shard.requests_min", "count"),
    ("kseg.encode_s", "s"),
    ("kseg.load_s", "s"),
    ("kseg.stored_bytes", "B"),
    ("kseg.compression_ratio", "ratio"),
    ("verifier.audit_s", "s"),
    ("verifier.preprocess_s", "s"),
    ("verifier.reexec_s", "s"),
    ("verifier.postprocess_s", "s"),
    ("verifier.unaccounted_s", "s"),
    ("verifier.groups", "count"),
    ("verifier.handler_executions", "count"),
    ("verifier.ops_executed", "count"),
    ("verifier.graph_nodes", "count"),
    ("verifier.graph_edges", "count"),
    ("verifier.isolation_dg_edges", "count"),
    ("verifier.advice_index_entries", "count"),
    ("verifier.arena_bytes", "B"),
    ("verifier.dedup_ratio", "ratio"),
    ("analysis.prescreen_s", "s"),
    ("shard_audit.s_max", "s"),
    ("shard_audit.s_mean", "s"),
    ("shard_audit.imbalance", "ratio"),
    ("shard_audit.epochs", "count"),
    ("shard_audit.artifact_bytes", "B"),
    ("shard_audit.peak_rss_mb_max", "MB"),
    ("shard_audit.gauge_resident_bytes", "B"),
    ("merge.s", "s"),
    ("record.latency_samples", "count"),
    ("gate.error_rate", "ratio"),
    ("trace.overhead_frac", "ratio"),
] + [("self.%s_s" % layer, "s") for layer in SELF_LAYERS]

MIN_PASSES = 3
# Wall-clock cap on one invocation's passes (the build is not counted).
PASS_BUDGET_S = 150.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures and builds the benchmark binary (incrementally after the first time);
    returns its path or None."""
    build_dir = os.path.join(target, "perfbench")
    rc = subprocess.call(["cmake", "-S", "perfbench", "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
    if rc != 0:
        return None
    rc = subprocess.call(["cmake", "--build", build_dir, "-j", "4"], stdout=sys.stderr)
    binary = os.path.join(build_dir, "perfbench")
    return binary if rc == 0 and os.path.exists(binary) else None


def run_pass(binary, args, index, inputs, workdir, traced, forge, timeout):
    """One record->verdict pass on input set `inputs`; returns its parsed
    result or None."""
    cmd = [binary, "pass", "--workload", args.workload, "--seed", str(args.seed),
           "--iter", str(inputs), "--dir", workdir, "--trace", "1" if traced else "0",
           "--forge", "1" if forge else "0",
           "--inject-forgery", "1" if args.inject_forgery else "0",
           "--smoke", "1" if args.smoke else "0"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("pass %d timed out" % index)
        return None
    if proc.returncode != 0:
        log("pass %d exited %d" % (index, proc.returncode))
        return None
    return parse_pass(out.decode())


def parse_pass(text):
    """Reads a pass report (see perfbench/perfbench.cc); None if it is cut short."""
    result = {"metrics": {}, "latency_ms": [], "spans": [], "failures": []}
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "M":
            name, value = rest.split(" ")
            result["metrics"][name] = float(value)
        elif kind == "L":
            result["latency_ms"] = [float(x) for x in rest.split()]
        elif kind == "S":
            result["spans"].append(rest)
        elif kind == "F":
            result["failures"].append(rest)
        elif kind == "C":
            attempted, failed = rest.split(" ")
            result["attempted"], result["failed"] = int(attempted), int(failed)
    return result if "attempted" in result else None


def percentile(sorted_values, q):
    """Linear-interpolated quantile of an ascending list."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def parse_spans(result):
    spans = []
    for line in result["spans"]:
        sid, parent, name, start, end = line.split(" ")
        spans.append({"id": sid, "parent": None if parent == "-" else parent, "name": name,
                      "start": float(start), "end": float(end)})
    return spans


def self_times(spans):
    """Per-layer self time: each span's duration minus the part of it that its
    children cover. Spans under an extra.* span (work outside the timed
    record->verdict path) are left out."""
    by_id = {s["id"]: s for s in spans}
    children = collections.defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)

    def extra(s):
        while s is not None:
            if s["name"].startswith("extra."):
                return True
            s = by_id.get(s["parent"])
        return False

    out = collections.defaultdict(float)
    for s in spans:
        if extra(s):
            continue
        covered = 0.0
        reach = s["start"]
        for lo, hi in sorted((max(c["start"], s["start"]), min(c["end"], s["end"]))
                             for c in children[s["id"]]):
            if hi <= reach:
                continue
            covered += hi - max(lo, reach)
            reach = hi
        out[s["name"].split(".")[0]] += (s["end"] - s["start"]) - covered
    return out


def trimmed_mean(values):
    """Mean of the middle 60% of the values: steadier than the median over a
    dozen passes whose inputs differ, and still blind to one odd pass."""
    values = sorted(values)
    cut = len(values) // 5
    return statistics.fmean(values[cut:len(values) - cut]) if values else 0.0


def aggregate(results, name):
    """One run's figure for a per-pass metric. Set-up time is the median of
    the passes' set-ups; everything else is a trimmed mean over passes."""
    values = [r["metrics"].get(name, 0.0) for r in results]
    if name == "setup_s":
        return statistics.median(values)
    return trimmed_mean(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--inject-forgery", action="store_true",
                        help="audit the forged record in the timed path (gate must fail)")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(target)
    if binary is None:
        log("perfbench: build failed")
        return 1

    run_id = "%s-seed%d-trace%d-%d-%d" % (args.workload, args.seed, args.trace,
                                          int(time.time()), os.getpid())
    # Relative, so the server's unix socket path stays short.
    workdir = os.path.relpath(os.path.join(target, "perfbench", "work", str(os.getpid())))
    started = time.monotonic()
    passes = []  # (traced, result)
    attempted = failed = 0
    crashed = False
    failures = []
    index = 0
    try:
        while True:
            # A traced run measures each input set twice, traced then not, so
            # the tracing overhead compares passes over the same inputs.
            traced = args.trace == 1 and index % 2 == 0
            inputs = index // 2 if args.trace == 1 else index
            remaining = PASS_BUDGET_S - (time.monotonic() - started)
            result = run_pass(binary, args, index, inputs, workdir, traced, index == 0, remaining)
            if result is None:
                crashed = True
                attempted += 1
                failed += 1
                failures.append("pass %d produced no result" % index)
            else:
                passes.append((traced, result))
                attempted += int(result["attempted"])
                failed += int(result["failed"])
                failures.extend(result["failures"])
            index += 1
            elapsed = time.monotonic() - started
            enough = index >= MIN_PASSES and (args.trace == 0 or index % 2 == 0)
            if crashed or elapsed >= PASS_BUDGET_S * 0.8 or (elapsed >= args.seconds and enough):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [r for t, r in passes if not t]
    traced_runs = [r for t, r in passes if t]
    if not timed or (args.trace and not traced_runs):
        log("perfbench: no pass completed")
        return 1

    for f in failures:
        print("FAILED: %s" % f)
    error_rate = failed / attempted
    correct = failed == 0 and not crashed

    if args.trace == 0:
        latencies = sorted(x for r in timed for x in r["latency_ms"])
        values = {name: aggregate(timed, name) for name, _ in END_TO_END}
        values["record_p50_ms"] = percentile(latencies, 0.50)
        values["record_p99_ms"] = percentile(latencies, 0.99)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print("%s seed %d: %d passes, %d latency samples (%d above p99)"
              % (args.workload, args.seed, len(timed), len(latencies),
                 sum(1 for x in latencies if x > values["record_p99_ms"])))
    else:
        latencies = [x for r in traced_runs for x in r["latency_ms"]]
        values = {name: aggregate(traced_runs, name) for name, _ in PER_LAYER}
        per_pass = [self_times(parse_spans(r)) for r in traced_runs]
        for layer in SELF_LAYERS:
            values["self.%s_s" % layer] = trimmed_mean([p.get(layer, 0.0) for p in per_pass])
        values["trace.overhead_frac"] = trimmed_mean(
            [t["metrics"]["time_to_verdict_s"] / u["metrics"]["time_to_verdict_s"]
             for t, u in zip(traced_runs, timed)]) - 1
        values["record.latency_samples"] = float(len(latencies))
        values["gate.error_rate"] = error_rate
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

        spans_dir = os.path.join(target, "perfbench", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, run_id + ".json")
        all_spans = []
        for i, r in enumerate(traced_runs):
            for s in parse_spans(r):
                s.update({"run": run_id, "pass": i})
                all_spans.append(s)
        with open(spans_path, "w") as f:
            json.dump({"run": run_id, "workload": args.workload, "seed": args.seed,
                       "self_time_s": {l: values["self.%s_s" % l] for l in SELF_LAYERS},
                       "spans": all_spans}, f)
        print("%s seed %d: %d traced + %d untraced passes; spans in %s"
              % (args.workload, args.seed, len(traced_runs), len(timed), spans_path))

    for name, m in metrics.items():
        print("  %-36s %16.6f %s" % (name, m["value"], m["unit"]))
    print("  %-36s %16.6f %s" % ("error_rate", error_rate, "ratio"))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
