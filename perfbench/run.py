#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source and runs a workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload train_paper --seed 1 --trace 0
  python3 perfbench/run.py --all --seed 1                # every workload
  python3 perfbench/run.py --smoke                       # tiny self-test

The build goes to .bench_build/ (CMake, perfbench/CMakeLists.txt, which
pulls in the repository's own top-level build). Workloads, metrics and
bounds are defined in BENCHMARK.json; the serving load and the predicted
layer -> end-to-end interactions live in perfbench/workloads.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: every end_to_end metric of BENCHMARK.json
with --trace 0, every per_layer metric with --trace 1. Exit code 0 when the
run's correctness checks pass, 1 when one fails, 2 or 3 on a usage, build or
run error (then no JSON line is printed).
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = BUILD / "out"
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness and agsc_worker."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "agsc_perfbench",
                  "agsc_worker", "-j", jobs])
    # Compiler scratch files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("perfbench: build step failed:", " ".join(cmd))
            sys.exit(3)
    return BUILD / "agsc_perfbench", BUILD / "agsc" / "tools" / "agsc_worker"


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def harness_args(binary, worker, workload, seed, seconds, trace, smoke):
    serve = json.loads((HERE / "workloads.json").read_text())["serve_tcp"]
    args = [str(binary.relative_to(ROOT)), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
            "--worker-binary", str(worker.relative_to(ROOT)),
            "--out-dir", str(OUT.relative_to(ROOT)),
            "--commit", commit(),
            "--serve-rate-rps", str(serve["rate_rps"])]
    return args + (["--smoke"] if smoke else [])


def run_harness(args):
    """Runs the harness; returns (exit code, report lines, result dict)."""
    try:
        proc = subprocess.run(args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        log("perfbench: harness timed out")
        sys.exit(2)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(proc.stdout)
        log(f"perfbench: harness failed with exit code {proc.returncode}")
        sys.exit(2)
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def contract_line(result, names):
    """Keeps exactly the declared metrics; fails if one is missing."""
    metrics = {}
    for name in names:
        m = result["metrics"].get(name)
        value = None if m is None else m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log(f"perfbench: metric {name} missing or not finite")
            sys.exit(2)
        metrics[name] = m
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(opts):
    binary, worker = build()
    spec = benchmark_spec()
    kind = "per_layer" if opts.trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    code, report, result = run_harness(harness_args(
        binary, worker, opts.workload, opts.seed, opts.seconds, opts.trace,
        smoke=False))
    for line in report:
        print(line)
    print(json.dumps(contract_line(result, names)), flush=True)
    return code


def run_all(opts):
    """Every workload at --trace 0; prints every metric the untraced run
    measures: the end-to-end ones plus the serving latency percentiles."""
    binary, worker = build()
    spec = benchmark_spec()
    rows, records, code = [], [], 0
    for w in spec["workloads"]:
        rc, _, result = run_harness(harness_args(
            binary, worker, w["name"], opts.seed, opts.seconds, 0, smoke=False))
        code = max(code, rc)
        records.append({"workload": w["name"], "result": result})
        for name, v in sorted(result["metrics"].items()):
            rows.append((w["name"], name, v["value"], v["unit"]))
        checks = "pass" if result["correct"] else "FAIL"
        rows.append((w["name"], "checks", checks, ""))
        rows.append((w["name"], "attempted/failed",
                     f'{result["attempted"]}/{result["failed"]}', ""))
    for r in rows:
        print(f"{r[0]:<14} {r[1]:<20} {r[2]:<14} {r[3]}")
    out = BUILD / "results.json"
    out.write_text(json.dumps(records, indent=1))
    print(f"results written to {out.relative_to(ROOT)}")
    return code


def run_smoke():
    """Tiny inputs: every workload, both trace modes, every check, every
    declared metric present; same-seed checkpoint CRCs repeat and the
    thread and subprocess collectors fill byte-identical buffers."""
    binary, worker = build()
    spec = benchmark_spec()
    failures = []
    crcs = {}
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            rc, _, result = run_harness(harness_args(
                binary, worker, w, 3, 1.0, trace, smoke=True))
            names = [m["name"]
                     for m in spec["per_layer" if trace else "end_to_end"]]
            missing = [n for n in names if n not in result["metrics"]]
            if rc != 0 or not result["correct"]:
                failures.append(f"{w} trace={trace}: checks failed "
                                f"{result['info']}")
            if missing:
                failures.append(f"{w} trace={trace}: missing {missing}")
            if result["attempted"] < 1:
                failures.append(f"{w} trace={trace}: nothing attempted")
            # The workloads are chosen so that no operation of a correct
            # program fails.
            if result["failed"] != 0:
                failures.append(f"{w} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            if trace == 0:
                crcs[w] = result["info"]
            print(f"smoke {w} trace={trace}: rc={rc} "
                  f"correct={result['correct']} "
                  f"metrics={len(result['metrics'])}")
    _, _, again = run_harness(harness_args(
        binary, worker, "train_paper", 3, 1.0, 0, smoke=True))
    if again["info"]["train.ckpt_crc"] != crcs["train_paper"]["train.ckpt_crc"]:
        failures.append("train_paper checkpoint CRC differs at equal seed")
    if (crcs["collect_w4"]["collect_w4.buffer_crc"] !=
            crcs["collect_proc4"]["collect_proc4.buffer_crc"]):
        failures.append("collect_w4 and collect_proc4 buffers differ")
    for f in failures:
        print("FAIL", f)
    print("smoke:", "FAIL" if failures else "ok")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="measured seconds (default: run_seconds of "
                   "BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--smoke", action="store_true")
    opts = p.parse_args()
    if opts.seconds is None:
        opts.seconds = benchmark_spec()["run_seconds"]
    if opts.smoke:
        return run_smoke()
    if opts.all:
        return run_all(opts)
    if not opts.workload:
        p.error("--workload, --all or --smoke is required")
    return run_one(opts)


if __name__ == "__main__":
    sys.exit(main())
