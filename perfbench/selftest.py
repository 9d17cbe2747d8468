#!/usr/bin/env python3
"""Self-test of the benchmark's smoke mode.

    python3 perfbench/selftest.py

Run from the repository root. For every workload, at tiny sizes:
  * --trace 0 passes the correctness gate and prints every end-to-end metric
    by name with its unit, in the human table and in the result line;
  * --trace 1 does the same for every per-layer metric and writes a spans file;
  * --inject-forgery (the forged record fed to the timed audit) fails the gate.
Last, a directory holding only BENCHMARK.json and perfbench/ must make the
benchmark exit non-zero without printing a result. Exits 0 when all hold.
"""
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TARGET = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def bench(workload, *flags, cwd=None, target=TARGET):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--smoke"] + list(flags)
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600,
                          env=dict(os.environ, CARGO_TARGET_DIR=target))
    return proc.returncode, proc.stdout


def check(cond, what, problems):
    print("%s %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        problems.append(what)


def check_metrics(stdout, expected, what, problems):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    table = "\n".join(lines[:-1])
    for name, unit in expected:
        got = result["metrics"].get(name)
        check(got is not None and got["unit"] == unit and isinstance(got["value"], (int, float)),
              "%s: result line has %s in %s" % (what, name, unit), problems)
        check((" %s " % name) in table and table.split(" %s " % name)[1].split("\n")[0]
              .strip().endswith(unit), "%s: table prints %s with %s" % (what, name, unit),
              problems)
    check(set(result["metrics"]) == {n for n, _ in expected},
          "%s: no metrics beyond the listed ones" % what, problems)
    return result


def main():
    problems = []
    for workload in run.WORKLOADS:
        rc, out = bench(workload, "--trace", "0")
        check(rc == 0, "%s --trace 0 exits 0" % workload, problems)
        if rc == 0:
            result = check_metrics(out, run.END_TO_END, workload, problems)
            check(result["correct"] is True and result["failed"] == 0,
                  "%s: honest record passes the gate" % workload, problems)
        rc, out = bench(workload, "--trace", "1")
        check(rc == 0, "%s --trace 1 exits 0" % workload, problems)
        if rc == 0:
            result = check_metrics(out, run.PER_LAYER, workload + " traced", problems)
            check(result["correct"] is True, "%s traced: gate passes" % workload, problems)
            spans_line = [l for l in out.splitlines() if "spans in " in l]
            check(bool(spans_line) and os.path.exists(spans_line[0].split("spans in ")[1]),
                  "%s traced: spans file written" % workload, problems)
        rc, out = bench(workload, "--trace", "0", "--inject-forgery")
        check(rc == 0, "%s --inject-forgery exits 0" % workload, problems)
        if rc == 0:
            result = json.loads(out.strip().splitlines()[-1])
            check(result["correct"] is False and result["failed"] > 0,
                  "%s: forged record fails the gate" % workload, problems)

    bare = os.path.join(TARGET, "perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    rc, out = bench("stacks-oneshot", cwd=bare, target=".bench_build")
    check(rc != 0 and '"metrics"' not in out,
          "without the repository around it the benchmark fails without a result", problems)
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %s" % ("FAILED: %d problems" % len(problems) if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
